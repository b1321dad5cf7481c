package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/testutil/leak"
)

// parkJob puts a queued record for a job no worker will pick up into
// the store, so the test decides when (and whether) it turns terminal.
func parkJob(t *testing.T, srv *Server, id string) JobStatus {
	t.Helper()
	rec := JobStatus{ID: id, State: StateQueued, Spec: exp.JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 5_000}}
	if err := srv.store.Append(rec); err != nil {
		t.Fatalf("store append: %v", err)
	}
	return rec
}

func getStatus(t *testing.T, ctx context.Context, url string) (int, JobStatus, time.Duration) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return resp.StatusCode, JobStatus{}, time.Since(start)
	}
	st := decodeStatus(t, resp)
	return resp.StatusCode, st, time.Since(start)
}

func TestStatusWaitAnswersWhenJobFinishes(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	rec := parkJob(t, srv, "jparked")
	go func() {
		time.Sleep(150 * time.Millisecond)
		rec.State = StateFailed
		rec.Error = &ErrorInfo{Message: "finished mid-wait"}
		srv.store.Append(rec)
	}()
	code, st, took := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jparked?wait=20s")
	if code != http.StatusOK || st.State != StateFailed {
		t.Fatalf("long-poll = %d %+v, want 200 failed", code, st)
	}
	if took > 10*time.Second {
		t.Fatalf("terminal record appended after 150ms but the poll answered after %v", took)
	}
}

func TestStatusWaitTimesOutWithCurrentRecord(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	parkJob(t, srv, "jidle")
	code, st, took := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jidle?wait=200ms")
	if code != http.StatusOK || st.State != StateQueued || st.ID != "jidle" {
		t.Fatalf("long-poll = %d %+v, want 200 with the queued record", code, st)
	}
	if took < 200*time.Millisecond {
		t.Fatalf("non-terminal job answered after %v, before the 200ms wait", took)
	}
}

func TestStatusWaitRejectsBadWait(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	parkJob(t, srv, "jbad")
	for _, w := range []string{"-1s", "soon", "5", "1x"} {
		code, _, _ := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jbad?wait="+w)
		if code != http.StatusBadRequest {
			t.Errorf("wait=%s: %d, want 400", w, code)
		}
	}
	// A plain GET and wait=0 answer at once.
	for _, q := range []string{"", "?wait=0s"} {
		code, st, took := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jbad"+q)
		if code != http.StatusOK || st.State != StateQueued || took > 5*time.Second {
			t.Errorf("GET%s = %d %s after %v", q, code, st.State, took)
		}
	}
}

func TestStatusWaitIsCapped(t *testing.T) {
	cases := map[string]time.Duration{
		"":       0,
		"0s":     0,
		"250ms":  250 * time.Millisecond,
		"30s":    maxStatusWait,
		"1h":     maxStatusWait,
		"10000h": maxStatusWait,
	}
	for in, want := range cases {
		got, err := parseStatusWait(in)
		if err != nil || got != want {
			t.Errorf("parseStatusWait(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestStatusWaitClientDisconnectFreesHandler(t *testing.T) {
	leak.Check(t)
	srv, ts := newTestServer(t, nil)
	parkJob(t, srv, "jgone")
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/jgone?wait=30s", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := ts.Client().Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request outlived its 100ms context")
	}
	// Close blocks until every handler has returned: a handler still
	// parked on the 30s wait would hold it.
	start := time.Now()
	ts.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("status handler outlived its client by %v", took)
	}
}

// TestWorkerWaitsForDurableAcceptance: a worker can dequeue a job before
// admission has persisted its queued record. It must wait for that
// record, or a fast job's terminal record could be overwritten by the
// late queued one and the job would never finish.
func TestWorkerWaitsForDurableAcceptance(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	spec := exp.JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 5_000}
	spec.Normalize(5_000)
	j := &job{id: "jlate", spec: spec, breakerKey: breakerKey(spec), enqueued: time.Now(),
		admitted: make(chan struct{})}
	srv.queue.force(j)
	time.Sleep(200 * time.Millisecond)
	if rec, ok := srv.store.Get("jlate"); ok {
		t.Fatalf("worker recorded %s before the job's acceptance was durable", rec.State)
	}
	if err := srv.store.Append(JobStatus{ID: "jlate", Key: "late", State: StateQueued, Spec: spec}); err != nil {
		t.Fatalf("store append: %v", err)
	}
	close(j.admitted)
	code, st, _ := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jlate?wait=20s")
	if code != http.StatusOK || st.State != StateSucceeded || st.Key != "late" {
		t.Fatalf("job = %d %s key %q, want succeeded under key late", code, st.State, st.Key)
	}
}
