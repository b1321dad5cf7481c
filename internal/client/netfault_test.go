package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/netfault"
	"rvpsim/internal/server"
)

// TestSubmitRetryResendsFullBody is the regression test for the
// drained-body retry bug: the first attempt's connection dies after the
// request was delivered, so the retry must rebuild the request body
// from scratch (http.Request.GetBody) instead of resending an empty or
// half-drained reader.
func TestSubmitRetryResendsFullBody(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(b))
		first := len(bodies) == 1
		mu.Unlock()
		if first {
			// The request arrived; its response is lost with the connection.
			conn, _, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateQueued, Spec: testSpec})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()), WithSeed(1))
	if _, err := c.Submit(context.Background(), testSpec, "k"); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("server saw %d attempts, want 2 (the first delivers the request, then loses the response)", len(bodies))
	}
	if bodies[0] == "" {
		t.Fatalf("first attempt delivered an empty body")
	}
	if bodies[1] != bodies[0] {
		t.Fatalf("retry body differs from first attempt:\n  first: %q\n  retry: %q", bodies[0], bodies[1])
	}
	var spec struct {
		Workload string `json:"workload"`
	}
	if err := json.Unmarshal([]byte(bodies[1]), &spec); err != nil || spec.Workload != testSpec.Workload {
		t.Fatalf("retry body is not the original spec: %q (err %v)", bodies[1], err)
	}
}

// TestSubmitPropagatesCallerDeadline: the X-Rvp-Deadline header must
// carry the caller's own deadline — and must NOT appear when the caller
// has none, even though WithMaxElapsed narrows the request context.
func TestSubmitPropagatesCallerDeadline(t *testing.T) {
	var mu sync.Mutex
	var headers []string
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if _, ok := r.Header[server.DeadlineHeader]; ok {
			headers = append(headers, r.Header.Get(server.DeadlineHeader))
		} else {
			headers = append(headers, "<absent>")
		}
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j1", State: server.StateQueued})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithBackoff(fastBackoff()), WithMaxElapsed(time.Minute))

	// No caller deadline: the retry budget must not leak into the header.
	if _, err := c.Submit(context.Background(), testSpec, "k1"); err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Caller deadline: propagated as unix microseconds.
	dl := time.Now().Add(45 * time.Second)
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	defer cancel()
	if _, err := c.Submit(ctx, testSpec, "k2"); err != nil {
		t.Fatalf("Submit with deadline: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(headers) != 2 {
		t.Fatalf("attempts = %d, want 2", len(headers))
	}
	if headers[0] != "<absent>" {
		t.Fatalf("deadline header sent without a caller deadline: %q (the WithMaxElapsed budget leaked)", headers[0])
	}
	if headers[1] != fmt.Sprintf("%d", dl.UnixMicro()) {
		t.Fatalf("deadline header = %q, want %d", headers[1], dl.UnixMicro())
	}
}

// sseBackend serves a job event stream that honors Last-Event-ID,
// recording the resume points clients present. Events run 1..total with
// the last one terminal.
type sseBackend struct {
	total int

	mu      sync.Mutex
	conns   int
	resumes []int64
}

func (s *sseBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, r *http.Request) {
		var after int64
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			fmt.Sscanf(v, "%d", &after)
		}
		s.mu.Lock()
		s.conns++
		s.resumes = append(s.resumes, after)
		s.mu.Unlock()

		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		for seq := after + 1; seq <= int64(s.total); seq++ {
			ev := server.JobEvent{Seq: seq, Job: "j1", Type: server.EvProgress}
			if seq == int64(s.total) {
				ev.Type = server.EvDone
			}
			b, _ := json.Marshal(ev)
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", seq, b)
			if fl != nil {
				fl.Flush()
			}
			time.Sleep(15 * time.Millisecond)
		}
	})
	return mux
}

// TestWatchResumesAcrossInjectedReset puts the SSE stream behind a
// netfault proxy that resets the connection mid-stream, and asserts the
// watcher resumes via Last-Event-ID with a dense, duplicate-free event
// sequence. The backend replays from the presented resume point, so an
// ignored Last-Event-ID would surface as duplicates and an overshot one
// as a gap — the assertions are self-enforcing.
func TestWatchResumesAcrossInjectedReset(t *testing.T) {
	be := &sseBackend{total: 6}
	ts := httptest.NewServer(be.handler())
	defer ts.Close()
	tu, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	inj := netfault.NewInjector()
	// Reset a response-direction read a few ops in: past the connect and
	// response headers, mid event stream. Everything later flows clean,
	// so the reconnect succeeds.
	inj.FailAt(netfault.Plan{At: 4, Kind: netfault.KindReset})
	proxy, err := netfault.NewProxy(tu.Host, inj)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c := New(proxy.URL(), WithBackoff(fastBackoff()), WithSeed(1))
	var seqs []int64
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	last, err := c.Watch(ctx, "j1", 0, func(ev server.JobEvent) {
		seqs = append(seqs, ev.Seq)
	})
	if err != nil {
		t.Fatalf("Watch: %v (trace %v)", err, inj.Trace())
	}
	if last.Type != server.EvDone {
		t.Fatalf("terminal event = %+v", last)
	}
	if len(seqs) != be.total {
		t.Fatalf("saw %d events %v, want exactly %d (no gaps, no duplicates); trace %v",
			len(seqs), seqs, be.total, inj.Trace())
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("event %d has seq %d; stream not dense: %v", i, s, seqs)
		}
	}
	be.mu.Lock()
	conns, resumes := be.conns, append([]int64(nil), be.resumes...)
	be.mu.Unlock()
	if conns < 2 {
		t.Fatalf("stream was never cut (%d connections); the injected reset did not land: trace %v", conns, inj.Trace())
	}
	// At least one reconnect presented a non-zero resume point.
	var resumed bool
	for _, r := range resumes[1:] {
		if r > 0 {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no reconnect carried Last-Event-ID: resumes %v", resumes)
	}
}
