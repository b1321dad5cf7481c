package server

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// postJobHeaders is postJob with arbitrary extra headers.
func postJobHeaders(t *testing.T, ts *httptest.Server, body, key string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

// plugWorker submits a job big enough to occupy the single worker for
// the rest of the test and waits until it is running.
func plugWorker(t *testing.T, srv *Server, ts *httptest.Server) string {
	t.Helper()
	resp := postJob(t, ts, `{"kind":"run","workload":"m88ksim","predictor":"rvp","insts":6000000,"profile_insts":500000}`, "plug")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("plug submit = %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	deadline := time.Now().Add(30 * time.Second)
	for srv.inflight.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("plug job never occupied the worker")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return st.ID
}

func TestDeadlineHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, bad := range []string{"banana", "-1", "0"} {
		resp := postJobHeaders(t, ts, runBody, "", map[string]string{DeadlineHeader: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("deadline %q = %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A deadline already in the past is refused outright: the caller is
	// gone before the work could start.
	past := fmt.Sprintf("%d", time.Now().Add(-time.Second).UnixMicro())
	resp := postJobHeaders(t, ts, runBody, "", map[string]string{DeadlineHeader: past})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("expired deadline = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestDeadlineExpiredWhileQueuedAbandonsJob(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.DrainTimeout = time.Second
	})
	plugWorker(t, srv, ts)

	// Queued behind the plug with a deadline the wait will blow through.
	dl := time.Now().Add(200 * time.Millisecond)
	resp := postJobHeaders(t, ts, runBody, "dl1",
		map[string]string{DeadlineHeader: fmt.Sprintf("%d", dl.UnixMicro())})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.DeadlineUS != dl.UnixMicro() {
		t.Fatalf("recorded DeadlineUS = %d, want %d", st.DeadlineUS, dl.UnixMicro())
	}

	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed || final.Error == nil || !final.Error.Timeout {
		t.Fatalf("abandoned job = %+v, want failed with Timeout", final)
	}
	if !strings.Contains(final.Error.Message, "deadline expired") {
		t.Fatalf("abandonment error = %q", final.Error.Message)
	}
	if n := srv.Registry().Counter("srv_deadline_expired_total", "").Value(); n < 1 {
		t.Errorf("srv_deadline_expired_total = %d, want >= 1", n)
	}
}

// TestSlowLorisBodyTimeout: clients trickling their request bodies are
// cut with 408 after BodyReadTimeout and never reach admission, while a
// fast client sails past them — slow readers cost a handler goroutine
// for a bounded time, not a worker slot.
func TestSlowLorisBodyTimeout(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BodyReadTimeout = 300 * time.Millisecond
	})
	tu, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Three slow-loris clients: headers promise a body that trickles in
	// far slower than the read timeout.
	const nSlow = 3
	conns := make([]net.Conn, nSlow)
	for i := range conns {
		c, err := net.Dial("tcp", tu.Host)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer c.Close()
		conns[i] = c
		fmt.Fprintf(c, "POST /v1/jobs HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{", tu.Host)
	}

	// While they trickle, a fast client must be admitted immediately.
	start := time.Now()
	resp := postJob(t, ts, runBody, "fast")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fast submit = %d, want 202 while slow-loris clients trickle", resp.StatusCode)
	}
	resp.Body.Close()
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fast submit took %v behind slow-loris clients", d)
	}

	// Each slow client is eventually cut with 408.
	for i, c := range conns {
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		buf := make([]byte, 512)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("slow conn %d read: %v", i, err)
		}
		if line := string(buf[:n]); !strings.Contains(line, "408") {
			t.Fatalf("slow conn %d response = %q, want 408", i, line)
		}
	}
	if n := srv.Registry().Counter("srv_body_timeouts_total", "").Value(); n != nSlow {
		t.Errorf("srv_body_timeouts_total = %d, want %d", n, nSlow)
	}
}
