package netfault

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestScheduleDeterministic is the reproduction contract: one seed, one
// schedule.
func TestScheduleDeterministic(t *testing.T) {
	kinds := []Kind{KindReset, KindLatency, KindFlip, KindPartition}
	a := Schedule(42, 500, 12, kinds, time.Second)
	b := Schedule(42, 500, 12, kinds, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%s\n%s", FormatPlans(a), FormatPlans(b))
	}
	if len(a) != 12 {
		t.Fatalf("want 12 plans, got %d", len(a))
	}
	seen := map[int64]bool{}
	for _, p := range a {
		if p.At < 0 || p.At >= 500 {
			t.Errorf("plan %s outside span", p)
		}
		if seen[p.At] {
			t.Errorf("duplicate op index %d", p.At)
		}
		seen[p.At] = true
		if p.Dur <= 0 || p.Dur > time.Second {
			t.Errorf("plan %s duration outside (0, 1s]", p)
		}
	}
	c := Schedule(43, 500, 12, kinds, time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// newBackend is a test origin that counts requests and serves a JSON
// payload with a numeric field (so flips have a digit to corrupt).
func newBackend(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var hits, bodyBytes atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		bodyBytes.Add(n)
		hits.Add(1)
		fmt.Fprint(w, `{"value":1234567890,"pad":"abcdefghijklmnopqrstuvwxyz"}`)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits, &bodyBytes
}

// faultyClient returns an HTTP client whose http.Transport dials
// through a Conn on inj: writes carry requests, reads responses. The
// transport's read loop and write loop run concurrently, so which of a
// connection's first read and first write is op 0 is not fixed; tests
// schedule only faults whose effect does not depend on it.
func faultyClient(t *testing.T, inj *Injector) *http.Client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			var d net.Dialer
			raw, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return WrapConn(raw, inj), nil
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// drainClose consumes and closes a response body so the underlying
// connection can be reused.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// eventually polls cond for up to 5s: the server handles a delivered
// request on its own goroutine, after the client may have given up.
func eventually(t *testing.T, cond func() bool, format string, args ...any) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf(format, args...)
		}
	}
}

func TestTransportLatency(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindLatency, Dur: 80 * time.Millisecond})
	start := time.Now()
	resp, err := faultyClient(t, inj).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("latency fault added only %v", d)
	}
}

// TestConnResetDeliversRequestFirst: a reset on the first read after a
// request was written fails the read with ErrReset, and the server has
// still received the whole request — the case that punishes clients
// whose retries resend a drained body.
func TestConnResetDeliversRequestFirst(t *testing.T) {
	srv, hits, bodyBytes := newBackend(t)
	raw, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector()
	c := WrapConn(raw, inj)
	defer c.Close()

	body := bytes.Repeat([]byte("x"), 4096)
	req, err := http.NewRequest(http.MethodPost, srv.URL, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Write(c); err != nil {
		t.Fatal(err)
	}
	inj.FailAt(Plan{At: inj.Ops(), Kind: KindReset})
	_, err = http.ReadResponse(bufio.NewReader(c), req)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("want injected reset, got %v", err)
	}
	eventually(t, func() bool { return hits.Load() == 1 && bodyBytes.Load() == int64(len(body)) },
		"request not fully delivered before reset: hits=%d bytes=%d", hits.Load(), bodyBytes.Load())
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after reset = %v, want net.ErrClosed", err)
	}
}

func TestTransportPartitionDelaysThenDelivers(t *testing.T) {
	srv, hits, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindPartition, Dur: 100 * time.Millisecond})
	hc := faultyClient(t, inj)
	start := time.Now()
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("partition healed too fast: %v", d)
	}
	if hits.Load() != 1 {
		t.Fatalf("hits = %d", hits.Load())
	}
	// A second request after heal flows cleanly.
	resp, err = hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
}

// TestTransportPartitionRespectsContext: a cancelled request closes its
// connection, and closing a Conn releases an op waiting out a
// partition.
func TestTransportPartitionRespectsContext(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindPartition, Dur: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := faultyClient(t, inj).Do(req); err == nil {
		t.Fatal("expected context error inside partition")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("context did not cut the partition wait short")
	}
}

// TestTransportOneWayPartitionLosesResponse: the request reaches the
// server while the response is held past the client's patience.
func TestTransportOneWayPartitionLosesResponse(t *testing.T) {
	srv, hits, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindPartitionOneWay, Dur: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faultyClient(t, inj).Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the response lost past the deadline, got %v", err)
	}
	eventually(t, func() bool { return hits.Load() == 1 },
		"request should have reached the server: hits=%d", hits.Load())
}

// TestConnFlipCorruptsOneDigit: a flip changes exactly one digit of the
// bytes it carries, in either direction.
func TestConnFlipCorruptsOneDigit(t *testing.T) {
	httpMsg := func(first, body string) string {
		return fmt.Sprintf("%s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", first, len(body), body)
	}
	cases := []struct {
		name    string
		payload string
		body    int // offset of the HTTP body; 0 for a bare payload
	}{
		{"bare", `{"value":1234567890,"pad":"abc"}`, 0},
		// An HTTP request and response: the flip must spare the request
		// and status lines (a "/v1" turned "/v0" is a 404, an
		// "HTTP/1.1" turned "HTTP/0.1" passes unnoticed) and land in
		// the JSON body.
		{"request", httpMsg("POST /v1/jobs HTTP/1.1", `{"kind":"run","insts":1000000}`), -1},
		{"response", httpMsg("HTTP/1.1 200 OK", `{"id":"j1","committed":10}`), -1},
	}
	for _, tc := range cases {
		want := []byte(tc.payload)
		if tc.body < 0 {
			tc.body = bytes.Index(want, []byte("\r\n\r\n")) + 4
		}
		for _, op := range []Op{OpWrite, OpRead} {
			near, far := net.Pipe()
			inj := NewInjector()
			inj.FailAt(Plan{At: 0, Kind: KindFlip})
			c := WrapConn(near, inj)
			src, dst := io.Writer(c), io.Reader(far)
			if op == OpRead {
				src, dst = far, c
			}
			go func() { _, _ = src.Write(want) }()
			got := make([]byte, len(want))
			if _, err := io.ReadFull(dst, got); err != nil {
				t.Fatalf("%s %s: %v", tc.name, op, err)
			}
			c.Close()
			diff, at := 0, -1
			for i := range got {
				if got[i] != want[i] {
					diff++
					at = i
				}
			}
			if diff != 1 || at < tc.body || got[at] < '0' || got[at] > '9' {
				t.Fatalf("%s %s: flip changed %d bytes, want exactly one body digit\nwant %q\ngot  %q", tc.name, op, diff, want, got)
			}
			var v map[string]any
			if err := json.Unmarshal(got[tc.body:], &v); err != nil {
				t.Fatalf("%s %s: flipped body no longer decodes: %v\n%q", tc.name, op, err, got[tc.body:])
			}
			if want := int64(min(tc.body, 1)); inj.BodyFlips() != want {
				t.Fatalf("%s %s: BodyFlips = %d, want %d", tc.name, op, inj.BodyFlips(), want)
			}
		}
	}
}

func TestTransportSlowLoris(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindSlowLoris, Dur: 5 * time.Millisecond})
	start := time.Now()
	resp, err := faultyClient(t, inj).Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	drainClose(resp)
	// A response of well over 128 bytes at ≤16 bytes per read, each
	// read after a 5ms pause: ≥8 reads.
	reads := 0
	for _, op := range inj.Trace() {
		if op == OpRead {
			reads++
		}
	}
	if d := time.Since(start); reads < 8 || d < 40*time.Millisecond {
		t.Fatalf("slow-loris response arrived in %d reads over %v", reads, d)
	}
}

// TestProxyForwardsCleanly: with an empty schedule the proxy is a
// transparent pipe.
func TestProxyForwardsCleanly(t *testing.T) {
	srv, hits, _ := newBackend(t)
	inj := NewInjector()
	px, err := NewProxy(srv.Listener.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	resp, err := http.Get(px.URL())
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if hits.Load() != 1 || !bytes.Contains(raw, []byte("1234567890")) {
		t.Fatalf("proxy mangled a clean request: hits=%d body=%q", hits.Load(), raw)
	}
	if ops := inj.Ops(); ops < 2 { // at least accept + some reads/writes
		t.Fatalf("injector counted %d ops", ops)
	}
}

// TestProxyReadReset: a reset on the response path kills the request
// but the next connection succeeds.
func TestProxyReadReset(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	// Op 0 is the accept; the first read of the response stream comes
	// later. Schedule resets broadly over early ops to catch it.
	for i := int64(1); i < 8; i++ {
		inj.FailAt(Plan{At: i, Kind: KindReset})
	}
	px, err := NewProxy(srv.Listener.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	hc := &http.Client{Timeout: 5 * time.Second}
	if _, err := hc.Get(px.URL()); err == nil {
		t.Fatal("expected the faulted connection to fail")
	}
	// The schedule is finite: a retrying client gets through once the
	// planned resets are spent — the convergence contract chaos tests
	// lean on.
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := hc.Get(px.URL())
		if err == nil {
			drainClose(resp)
			return
		}
		lastErr = err
	}
	t.Fatalf("no request succeeded after the schedule drained: %v\ntrace: %v", lastErr, inj.Trace())
}

// TestProxyFlipCorruptsPayload flips at every op of a proxied GET: the
// request has no body, so its flips wait, and the response's land in
// its JSON body. The status line survives, the body still decodes, and
// its number changed.
func TestProxyFlipCorruptsPayload(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	for i := int64(0); i < 16; i++ {
		inj.FailAt(Plan{At: i, Kind: KindFlip})
	}
	px, err := NewProxy(srv.Listener.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	hc := &http.Client{Timeout: 5 * time.Second}

	resp, err := hc.Get(px.URL())
	if err != nil {
		t.Fatalf("GET through flipping proxy: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body error %v: the flip hit the framing", resp.StatusCode, err)
	}
	var v struct{ Value int64 }
	if err := json.Unmarshal(got, &v); err != nil || v.Value == 1234567890 {
		t.Fatalf("body %q (decode error %v): want the value's digit flipped", got, err)
	}
	if inj.BodyFlips() == 0 {
		t.Fatalf("BodyFlips = 0 after a body changed")
	}
}

// TestConnFlipWaitsOutTrickledHeaders: a response read 16 bytes at a
// time, as under slow-loris, shows no CRLF in its first read. A flip
// scheduled there must still spare the status line and headers and
// change the body.
func TestConnFlipWaitsOutTrickledHeaders(t *testing.T) {
	body := `{"id":"j1","committed":10}`
	want := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body))
	near, far := net.Pipe()
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindFlip})
	c := WrapConn(near, inj)
	defer c.Close()
	go func() { _, _ = far.Write(want) }()
	var got []byte
	for len(got) < len(want) {
		buf := make([]byte, 16)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	at := len(want) - len(body)
	if !bytes.Equal(got[:at], want[:at]) || bytes.Equal(got, want) || inj.BodyFlips() != 1 {
		t.Fatalf("flip landed outside the body, or nowhere (%d body flips):\nwant %q\ngot  %q", inj.BodyFlips(), want, got)
	}
}

// TestProxyFlipOnAcceptHitsResponseBody: an accept moves no bytes, so a
// flip planned on one changes the first response body instead.
func TestProxyFlipOnAcceptHitsResponseBody(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	inj.FailAt(Plan{At: 0, Kind: KindFlip})
	px, err := NewProxy(srv.Listener.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(px.URL())
	if err != nil {
		t.Fatalf("GET through flipping proxy: %v", err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v struct{ Value int64 }
	if err != nil || json.Unmarshal(got, &v) != nil || v.Value == 1234567890 || inj.BodyFlips() != 1 {
		t.Fatalf("body %q (error %v), %d body flips: want one digit flipped", got, err, inj.BodyFlips())
	}
	if tr := inj.Trace(); tr[0] != OpAccept {
		t.Fatalf("op 0 is %s, want accept", tr[0])
	}
}

// TestProxyAcceptLatencyAndSlowLoris: a latency plan on an accept
// delays serving that connection, and a slow-loris plan there makes it
// trickle from its first op; neither is spent doing nothing.
func TestProxyAcceptLatencyAndSlowLoris(t *testing.T) {
	srv, _, _ := newBackend(t)
	get := func(p Plan) (*Injector, time.Duration) {
		t.Helper()
		inj := NewInjector()
		inj.FailAt(p)
		px, err := NewProxy(srv.Listener.Addr().String(), inj)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		start := time.Now()
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(px.URL())
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		drainClose(resp)
		if tr := inj.Trace(); tr[0] != OpAccept {
			t.Fatalf("%v: op 0 is %s, want accept", p, tr[0])
		}
		return inj, time.Since(start)
	}
	if _, d := get(Plan{At: 0, Kind: KindLatency, Dur: 150 * time.Millisecond}); d < 150*time.Millisecond {
		t.Errorf("latency on the accept: request served in %v, want at least 150ms", d)
	}
	// A response of well over 128 bytes at ≤16 bytes per read, each
	// read after a 5ms pause: ≥8 reads.
	inj, d := get(Plan{At: 0, Kind: KindSlowLoris, Dur: 5 * time.Millisecond})
	reads := 0
	for _, op := range inj.Trace() {
		if op == OpRead {
			reads++
		}
	}
	if reads < 8 || d < 40*time.Millisecond {
		t.Errorf("slow-loris on the accept: response arrived in %d reads over %v", reads, d)
	}
}

// TestConnPartitionBlocksThenHeals: a full partition on a Proxy stalls
// both directions, then delivery resumes.
func TestConnPartitionBlocksThenHeals(t *testing.T) {
	srv, _, _ := newBackend(t)
	inj := NewInjector()
	px, err := NewProxy(srv.Listener.Addr().String(), inj)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	// Partition the link at the first post-accept op.
	inj.FailAt(Plan{At: 1, Kind: KindPartition, Dur: 120 * time.Millisecond})
	hc := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := hc.Get(px.URL())
	if err != nil {
		t.Fatalf("partitioned request should heal and succeed: %v", err)
	}
	drainClose(resp)
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("request finished in %v, inside the partition window", d)
	}
}
