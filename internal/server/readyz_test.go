package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestReadyzDrainTransition pins the contract the fleet coordinator
// reads: a serving daemon answers 200 with ready:true/draining:false,
// and from the moment SIGTERM starts a drain, /readyz answers 503 with
// an explicit Draining:true body — so a coordinator stops assigning
// cells to the worker (drain) instead of treating it as dead (down),
// while the still-listening endpoint keeps status polls alive.
func TestReadyzDrainTransition(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	get := func() (int, readyStatus) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		defer resp.Body.Close()
		var st readyStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("readyz body (status %d): %v", resp.StatusCode, err)
		}
		return resp.StatusCode, st
	}

	code, st := get()
	if code != http.StatusOK || !st.Ready || st.Draining {
		t.Fatalf("before drain: %d %+v, want 200 ready:true draining:false", code, st)
	}

	if !srv.Drain() {
		t.Fatalf("idle drain reported unclean")
	}

	code, st = get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", code)
	}
	if st.Ready || !st.Draining {
		t.Fatalf("during drain: body %+v, want ready:false draining:true", st)
	}

	// Draining is terminal for this process: the flag never flips back.
	code, st = get()
	if code != http.StatusServiceUnavailable || !st.Draining {
		t.Fatalf("drain did not stick: %d %+v", code, st)
	}
}

// TestReadyzReportsAdmissionP99: /readyz's p99_wait_ms is the p99 that
// admission sheds on, for a known set of queue waits.
func TestReadyzReportsAdmissionP99(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	// 97 fast waits and a 3% slow tail, fed as a worker reports them
	// when it takes a job off the queue.
	for i := 0; i < 100; i++ {
		wait := 3 * time.Millisecond
		if i%50 == 0 || i == 99 {
			wait = 250 * time.Millisecond
		}
		srv.queue.depth.Add(1)
		srv.queue.noteDequeue(testJob("x"), wait)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var st readyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	if want := srv.queue.p99().Milliseconds(); st.P99WaitMS != want || want != 250 {
		t.Fatalf("readyz p99_wait_ms = %d, admission p99 = %dms, want both 250", st.P99WaitMS, want)
	}
}
