package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"rvpsim/internal/faultinject"
	"rvpsim/internal/wal"
)

// newTestServer builds a small, fast service against a temp state dir.
// mutate may adjust the config before New.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		StateDir:     t.TempDir(),
		Workers:      1,
		QueueDepth:   4,
		DefaultInsts: 5_000,
		JobTimeout:   time.Minute,
		DrainTimeout: 5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body, key string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding JobStatus: %v", err)
	}
	return st
}

// waitTerminal polls the status endpoint until the job is terminal.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		st := decodeStatus(t, resp)
		if st.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

const runBody = `{"kind":"run","workload":"go","predictor":"rvp","insts":5000}`

func TestSubmitRunsToSuccess(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJob(t, ts, runBody, "key-1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("accepted status = %+v", st)
	}
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("final state = %s (%+v)", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Stats == nil || final.Result.Stats.Committed == 0 {
		t.Fatalf("no stats in result: %+v", final.Result)
	}
	if final.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", final.Attempts)
	}
}

func TestSubmitIdempotencyDedupe(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := decodeStatus(t, postJob(t, ts, runBody, "dup-key"))
	waitTerminal(t, ts, st.ID)

	// Same key, same spec: answered from the store with the job's current
	// (terminal) record, not a second job.
	resp := postJob(t, ts, runBody, "dup-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedupe status = %d, want 200", resp.StatusCode)
	}
	again := decodeStatus(t, resp)
	if again.ID != st.ID {
		t.Fatalf("dedupe returned a different job: %s vs %s", again.ID, st.ID)
	}
	if again.State != StateSucceeded {
		t.Fatalf("dedupe state = %s, want the terminal record", again.State)
	}
}

func TestSubmitIdempotencyConflict(t *testing.T) {
	_, ts := newTestServer(t, nil)
	decodeStatus(t, postJob(t, ts, runBody, "conflict-key"))
	other := `{"kind":"run","workload":"perl","predictor":"rvp","insts":5000}`
	resp := postJob(t, ts, other, "conflict-key")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("key reuse with different spec = %d, want 409", resp.StatusCode)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, body := range []string{
		``,
		`not json`,
		`{"kind":"run","workload":"nonesuch","predictor":"rvp"}`,
		`{"kind":"run","workload":"go","predictor":"rvp","bogus_field":1}`,
		`{"kind":"run","workload":"go","predictor":"rvp"} trailing`,
	} {
		resp := postJob(t, ts, body, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestSubmitOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.MaxBody = 256 })

	// Declared oversized: rejected on Content-Length before any read.
	big := `{"kind":"run","workload":"go","predictor":"rvp","recovery":"` + strings.Repeat("x", 1024) + `"}`
	resp := postJob(t, ts, big, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized declared body = %d, want 413", resp.StatusCode)
	}

	// Chunked (unknown length) oversized: caught by MaxBytesReader.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
		io.NopCloser(struct{ io.Reader }{strings.NewReader(big)}))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.ContentLength = -1
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("chunked POST: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunked body = %d, want 413", resp2.StatusCode)
	}
}

func TestSubmitShedsWhenQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.QueueDepth = 2 })
	// Park the worker pool so nothing drains the queue.
	srv.stopOnce.Do(func() { close(srv.stopPick) })
	srv.wg.Wait()

	for i := 0; i < 2; i++ {
		resp := postJob(t, ts, runBody, "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postJob(t, ts, runBody, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit past depth = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.RetryAfterSeconds < 1 {
		t.Fatalf("429 body = %+v (err %v), want retry_after_seconds >= 1", body, err)
	}
}

func TestSubmitShedsWhileDraining(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if !srv.Drain() {
		t.Fatalf("idle drain reported unclean")
	}
	resp := postJob(t, ts, runBody, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining 503 without Retry-After")
	}
}

func TestStatusUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/jdeadbeef")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %v %d", err, resp.StatusCode)
	}
	var ready readyStatus
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	resp.Body.Close()
	if !ready.Ready || ready.Draining {
		t.Fatalf("readyz = %+v, want ready", ready)
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %v %d", err, resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"srv_jobs_submitted_total", "srv_queue_depth", "srv_queue_wait_ms"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("metrics output missing %s", want)
		}
	}

	// After a drain, readyz flips to 503 while healthz stays 200.
	srv.Drain()
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("readyz after drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain = %v %d, want 200", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRestartRecoversQueuedJobs proves the acceptance contract survives
// a restart: jobs queued (but never started) when the daemon stops are
// re-enqueued and completed by the next daemon against the same state
// directory.
func TestRestartRecoversQueuedJobs(t *testing.T) {
	state := t.TempDir()
	cfg := Config{
		StateDir:     state,
		Workers:      1,
		QueueDepth:   4,
		DefaultInsts: 5_000,
		JobTimeout:   time.Minute,
		DrainTimeout: time.Second,
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatalf("first daemon: %v", err)
	}
	// Park the worker so the job stays queued, then accept one job.
	srv1.stopOnce.Do(func() { close(srv1.stopPick) })
	srv1.wg.Wait()
	ts1 := httptest.NewServer(srv1.Handler())
	st := decodeStatus(t, postJob(t, ts1, runBody, "recover-key"))
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("second daemon: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	final := waitTerminal(t, ts2, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("recovered job state = %s (%+v)", final.State, final.Error)
	}

	// The idempotency key still maps to the same, now-finished job.
	resp := postJob(t, ts2, runBody, "recover-key")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart dedupe = %d, want 200", resp.StatusCode)
	}
	if got := decodeStatus(t, resp); got.ID != st.ID {
		t.Fatalf("post-restart dedupe job = %s, want %s", got.ID, st.ID)
	}
}

// TestRecoversStateDirWithTenantRecords: job-store records written by
// daemons that still admitted per tenant carry a "tenant" field. A
// queued and a running record of that shape must both recover and run
// to success, and a client that still sends X-Rvp-Tenant is admitted
// with the header ignored.
func TestRecoversStateDirWithTenantRecords(t *testing.T) {
	state := t.TempDir()
	var log []byte
	for _, rec := range []string{
		`{"id":"j5f1c0e9a3b7d2468","key":"upgrade-queued","state":"queued","spec":{"kind":"run","workload":"go","predictor":"rvp","recovery":"selective","insts":5000,"profile_insts":1250,"threshold":0.8},"trace_id":"tqueued","tenant":"fleet"}`,
		`{"id":"j0a9b8c7d6e5f4321","key":"upgrade-running","state":"running","spec":{"kind":"run","workload":"perl","predictor":"rvp","recovery":"selective","insts":5000,"profile_insts":1250,"threshold":0.8},"attempts":1,"trace_id":"trunning","tenant":"fleet"}`,
	} {
		line, err := wal.EncodeRecord(json.RawMessage(rec))
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, line...)
	}
	if err := os.WriteFile(StorePath(state), log, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, func(c *Config) { c.StateDir = state })
	for _, id := range []string{"j5f1c0e9a3b7d2468", "j0a9b8c7d6e5f4321"} {
		if final := waitTerminal(t, ts, id); final.State != StateSucceeded {
			t.Fatalf("recovered job %s = %s (%+v), want succeeded", id, final.State, final.Error)
		}
	}

	resp := postJobHeaders(t, ts, runBody, "", map[string]string{"X-Rvp-Tenant": "team-a"})
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("submit with X-Rvp-Tenant = %d, want 202", resp.StatusCode)
	}
	if final := waitTerminal(t, ts, decodeStatus(t, resp).ID); final.State != StateSucceeded {
		t.Fatalf("job submitted with X-Rvp-Tenant = %s (%+v), want succeeded", final.State, final.Error)
	}
}

// TestJobFailureRecordsTypedError injects a sticky non-transient fault
// into one workload and checks the typed error payload and the failure
// counter. A failure sheds nothing: a fresh submission of the workload
// is admitted and runs, and resubmitting the failed job's key answers
// with its stored failed record instead of running it again.
func TestJobFailureRecordsTypedError(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Faults = map[string]faultinject.Config{"go": {FailAfter: 1}}
	})
	st := decodeStatus(t, postJob(t, ts, runBody, "fail-key"))
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("faulted job state = %s, want failed", final.State)
	}
	if final.Error == nil || final.Error.Message == "" {
		t.Fatalf("failed job carries no typed error: %+v", final)
	}
	if final.Error.Transient {
		t.Fatalf("injected hard fault marked transient: %+v", final.Error)
	}
	if got := srv.reg.Counter("srv_jobs_failed_total", "").Value(); got != 1 {
		t.Fatalf("srv_jobs_failed_total = %d, want 1", got)
	}

	deduped := srv.reg.Counter("srv_jobs_deduped_total", "")
	dedupedBefore := deduped.Value()

	// A keyless submission of the failed workload is admitted and runs
	// (and fails on the same sticky fault): its failure is the only one
	// the counter gains.
	resp := postJob(t, ts, runBody, "")
	if resp.StatusCode != http.StatusAccepted {
		resp.Body.Close()
		t.Fatalf("keyless submit after a failure = %d, want 202", resp.StatusCode)
	}
	again := waitTerminal(t, ts, decodeStatus(t, resp).ID)
	if again.ID == st.ID || again.Attempts != 1 || again.State != StateFailed {
		t.Fatalf("keyless resubmission = %+v, want a fresh job that ran once and failed", again)
	}
	if got := srv.reg.Counter("srv_jobs_failed_total", "").Value(); got != 2 {
		t.Fatalf("srv_jobs_failed_total = %d, want 2", got)
	}

	// The failed job's own key answers with its stored failed record.
	resp = postJob(t, ts, runBody, "fail-key")
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("resubmitting the failed key = %d, want 200", resp.StatusCode)
	}
	stored := decodeStatus(t, resp)
	if stored.ID != st.ID || stored.State != StateFailed || stored.Error == nil ||
		stored.Error.Message != final.Error.Message || stored.Attempts != final.Attempts {
		t.Fatalf("deduped record = %+v, want the stored failed job %+v", stored, final)
	}
	if got := deduped.Value() - dedupedBefore; got != 1 {
		t.Fatalf("srv_jobs_deduped_total rose by %d, want 1", got)
	}
	if got := srv.reg.Counter("srv_jobs_failed_total", "").Value(); got != 2 {
		t.Fatalf("srv_jobs_failed_total = %d after a dedupe, want 2", got)
	}
}

// jobDir cleanup: a succeeded job must not leave scratch state behind.
func TestSucceededJobCleansStateDir(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	st := decodeStatus(t, postJob(t, ts, runBody, "clean-key"))
	waitTerminal(t, ts, st.ID)
	if _, err := os.Stat(srv.jobDir(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("job state dir still present after success (err=%v)", err)
	}
}
