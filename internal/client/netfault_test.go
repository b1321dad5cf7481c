package client

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
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

// pollBackend serves one job's status the way rvpd answers a watcher:
// each poll with ?after=N gets the next event past N, after a short
// wait, and the last event is terminal. It records the resume point and
// connection of every poll.
type pollBackend struct {
	total int

	mu    sync.Mutex
	polls []pollSeen
}

type pollSeen struct {
	conn  string // the client's address: one per TCP connection
	after int64
}

func (b *pollBackend) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, r *http.Request) {
		after, err := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
		if err != nil {
			http.Error(w, "watch without after", http.StatusBadRequest)
			return
		}
		b.mu.Lock()
		b.polls = append(b.polls, pollSeen{conn: r.RemoteAddr, after: after})
		b.mu.Unlock()

		// The status line and headers go out first, the body after the
		// wait, so a reset can cut a poll between the two.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(15 * time.Millisecond)
		st := server.JobStatus{ID: "j1", State: server.StateRunning}
		if seq := after + 1; seq <= int64(b.total) {
			ev := server.JobEvent{Seq: seq, Job: "j1", Type: server.EvProgress}
			if seq == int64(b.total) {
				ev.Type = server.EvDone
				st.State = server.StateSucceeded
			}
			st.Events = []server.JobEvent{ev}
		}
		json.NewEncoder(w).Encode(st)
	})
	return mux
}

// TestWatchResumesAcrossInjectedReset puts the watched job's status
// behind a netfault proxy that resets the connection mid-poll, and
// asserts the watcher resumes from its last seen event with a dense,
// duplicate-free event sequence. The backend answers from the resume
// point each poll presents, so an ignored resume point would surface as
// duplicates and an overshot one as a gap — the assertions are
// self-enforcing.
func TestWatchResumesAcrossInjectedReset(t *testing.T) {
	be := &pollBackend{total: 6}
	ts := httptest.NewServer(be.handler())
	defer ts.Close()
	tu, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	inj := netfault.NewInjector()
	// Each poll is a request write and two response reads (headers,
	// then body). Op 6 is the second poll's body read: after the accept
	// and the first poll, the backend has answered and the answer is
	// lost. Everything later flows clean, so the next poll succeeds.
	inj.FailAt(netfault.Plan{At: 6, Kind: netfault.KindReset})
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
			t.Fatalf("event %d has seq %d; events not dense: %v", i, s, seqs)
		}
	}
	be.mu.Lock()
	polls := append([]pollSeen(nil), be.polls...)
	be.mu.Unlock()
	// The backend answered a poll past an event whose answer the reset
	// cut, and the watcher asked again on a new connection.
	var resumed bool
	for i, p := range polls {
		for _, q := range polls[i+1:] {
			if p.after > 0 && q.after == p.after && q.conn != p.conn {
				resumed = true
			}
		}
	}
	if !resumed {
		t.Fatalf("no cut poll was resumed on a new connection: polls %+v; the injected reset did not land mid-poll: trace %v",
			polls, inj.Trace())
	}
}
