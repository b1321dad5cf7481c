package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/server"
	"rvpsim/internal/testutil/leak"
)

// fakeWorker is an in-process stand-in for rvpd that implements just
// the slices of the job API the coordinator uses: idempotency-keyed
// submission, status polls, and /readyz. Its mode decides how jobs
// behave:
//
//	done  — every status poll reports success with digest-derived stats
//	hang  — jobs stay running forever (a live straggler)
//	mute  — status polls return 500 (a wedged or partitioned worker)
type fakeWorker struct {
	ts *httptest.Server

	mu          sync.Mutex
	mode        string
	draining    bool
	jobs        map[string]exp.JobSpec // id -> spec
	byKey       map[string]string
	submissions int
	polls       int // status calls; the fake ignores ?wait=, as an older rvpd would
}

func newFakeWorker(mode string) *fakeWorker {
	w := &fakeWorker{mode: mode, jobs: map[string]exp.JobSpec{}, byKey: map[string]string{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", w.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", w.status)
	mux.HandleFunc("GET /readyz", w.readyz)
	w.ts = httptest.NewServer(mux)
	return w
}

func (w *fakeWorker) setMode(m string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.mode = m
}

func (w *fakeWorker) setDraining(d bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.draining = d
}

func (w *fakeWorker) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.submissions
}

func (w *fakeWorker) submit(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		rw.Header().Set("Retry-After", "1")
		rw.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(rw).Encode(map[string]string{"error": "draining"})
		return
	}
	var spec exp.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		rw.WriteHeader(http.StatusBadRequest)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	id, known := w.byKey[key]
	if !known {
		w.submissions++
		id = fmt.Sprintf("fj-%d", w.submissions)
		w.byKey[key] = id
		w.jobs[id] = spec
	}
	code := http.StatusAccepted
	if known {
		code = http.StatusOK
	}
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(server.JobStatus{ID: id, Key: key, State: server.StateQueued, Spec: spec})
}

func (w *fakeWorker) pollCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.polls
}

func (w *fakeWorker) status(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.polls++
	spec, ok := w.jobs[r.PathValue("id")]
	if !ok {
		rw.WriteHeader(http.StatusNotFound)
		json.NewEncoder(rw).Encode(map[string]string{"error": "unknown job"})
		return
	}
	switch w.mode {
	case "mute":
		rw.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(rw).Encode(map[string]string{"error": "wedged"})
	case "hang":
		json.NewEncoder(rw).Encode(server.JobStatus{ID: r.PathValue("id"), State: server.StateRunning, Spec: spec})
	case "fail":
		json.NewEncoder(rw).Encode(server.JobStatus{
			ID: r.PathValue("id"), State: server.StateFailed, Spec: spec,
			Error: &server.ErrorInfo{Message: "injected failure"},
		})
	case "tamper":
		// A corrupted-in-transit result: sealed over the true stats, then
		// the stats mutated. The digest no longer matches the envelope.
		st := fakeStats(spec.Digest())
		res := exp.JobResult{Stats: &st}
		res.Seal()
		st.Cycles++
		json.NewEncoder(rw).Encode(server.JobStatus{
			ID: r.PathValue("id"), State: server.StateSucceeded, Spec: spec,
			Result: &res,
		})
	case "sealed":
		st := fakeStats(spec.Digest())
		res := exp.JobResult{Stats: &st}
		res.Seal()
		json.NewEncoder(rw).Encode(server.JobStatus{
			ID: r.PathValue("id"), State: server.StateSucceeded, Spec: spec,
			Result: &res,
		})
	default: // done
		st := fakeStats(spec.Digest())
		json.NewEncoder(rw).Encode(server.JobStatus{
			ID: r.PathValue("id"), State: server.StateSucceeded, Spec: spec,
			Result: &exp.JobResult{Stats: &st},
		})
	}
}

func (w *fakeWorker) readyz(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		rw.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(rw).Encode(map[string]any{"ready": !w.draining, "draining": w.draining})
}

// testCoord opens a coordinator with test-speed timing.
func testCoord(t *testing.T, dir string, urls ...string) *Coordinator {
	t.Helper()
	c, err := Open(Config{
		StateDir:     dir,
		Workers:      urls,
		Lease:        400 * time.Millisecond,
		Heartbeat:    40 * time.Millisecond,
		Poll:         10 * time.Millisecond,
		StealAge:     120 * time.Millisecond,
		CellAttempts: 2,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func coordSweep(t *testing.T, c *Coordinator) (SweepSpec, string) {
	t.Helper()
	spec := SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp", "none"}, Insts: 5_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	// Status echoes the normalized identity; rebuild it for expectations.
	spec.Normalize(c.cfg.DefaultInsts)
	if st.ID != spec.ID() {
		t.Fatalf("sweep ID = %s, want %s", st.ID, spec.ID())
	}
	return spec, st.ID
}

func TestCoordinatorCompletesSweepAndMergeMatches(t *testing.T) {
	leak.Check(t)
	w1, w2 := newFakeWorker("done"), newFakeWorker("done")
	defer w1.ts.Close()
	defer w2.ts.Close()
	c := testCoord(t, t.TempDir(), w1.ts.URL, w2.ts.URL)
	defer c.Stop()

	spec, id := coordSweep(t, c)
	waitFor(t, "sweep done", func() bool {
		st, _ := c.Status(id)
		return st.Terminal()
	})
	st, _ := c.Status(id)
	if st.State != "done" || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("status = %+v, want done 4/0", st)
	}
	// The merged table must match a merge of the same digest-derived
	// stats computed locally — the fleet added nothing and lost nothing.
	if want := expectedTable(spec); st.TableText != want {
		t.Errorf("fleet table differs from local merge:\n--- fleet\n%s--- local\n%s", st.TableText, want)
	}
	if got := c.Registry().Counter("fleet_cells_done_total", "").Value(); got != 4 {
		t.Errorf("fleet_cells_done_total = %d, want 4", got)
	}
}

// expectedTable merges the same digest-derived fake stats the fake
// workers serve — the local reference for what the fleet assembles.
func expectedTable(spec SweepSpec) string {
	done := map[string]pipeline.Stats{}
	for _, cell := range spec.Cells() {
		done[cell.ID] = fakeStats(cell.ID)
	}
	return MergeTable(spec, done, nil).String()
}

func TestSweepSubmissionIdempotent(t *testing.T) {
	leak.Check(t)
	w := newFakeWorker("done")
	defer w.ts.Close()
	c := testCoord(t, t.TempDir(), w.ts.URL)
	defer c.Stop()

	_, id := coordSweep(t, c)
	st2, err := c.SubmitSweep(SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp", "none"}, Insts: 5_000})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.ID != id {
		t.Errorf("resubmission forked a new sweep: %s vs %s", st2.ID, id)
	}
	if got := c.Sweeps(); len(got) != 1 {
		t.Errorf("sweeps = %v, want exactly one", got)
	}
}

func TestLeaseExpiryReassignsDeadWorkersCell(t *testing.T) {
	leak.Check(t)
	// A wedged worker accepts the dispatch, then answers every status
	// poll with 500: no heartbeat, so the janitor must expire the lease.
	w := newFakeWorker("mute")
	defer w.ts.Close()
	c := testCoord(t, t.TempDir(), w.ts.URL)
	defer c.Stop()

	spec := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	expiries := c.Registry().Counter("fleet_lease_expiries_total", "")
	waitFor(t, "a lease expiry", func() bool { return expiries.Value() >= 1 })

	// The worker recovers; the re-leased cell must now complete.
	w.setMode("done")
	waitFor(t, "sweep done after recovery", func() bool {
		got, _ := c.Status(st.ID)
		return got.State == "done"
	})
	if got := c.Registry().Counter("fleet_leases_total", "").Value(); got < 2 {
		t.Errorf("fleet_leases_total = %d, want >= 2 (original + re-lease)", got)
	}
	got, _ := c.Status(st.ID)
	if got.Done != 1 || got.Failed != 0 {
		t.Errorf("status = %+v, want exactly one done cell", got)
	}
}

func TestIdleWorkerStealsFromStraggler(t *testing.T) {
	leak.Check(t)
	// A hanging worker heartbeats forever (its lease never expires), so
	// only the steal path can unstick the cell.
	slow := newFakeWorker("hang")
	defer slow.ts.Close()
	dir := t.TempDir()
	c, err := Open(Config{
		StateDir:     dir,
		Workers:      []string{slow.ts.URL},
		Lease:        time.Hour, // expiry must not be the rescue
		Heartbeat:    40 * time.Millisecond,
		Poll:         10 * time.Millisecond,
		StealAge:     120 * time.Millisecond,
		CellAttempts: 2,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()

	spec := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	waitFor(t, "straggler to hold the lease", func() bool {
		got, _ := c.Status(st.ID)
		return got.Leased == 1
	})
	fast := newFakeWorker("done")
	defer fast.ts.Close()
	if err := c.AddWorker(fast.ts.URL); err != nil {
		t.Fatalf("AddWorker: %v", err)
	}
	waitFor(t, "sweep done via steal", func() bool {
		got, _ := c.Status(st.ID)
		return got.State == "done"
	})
	if got := c.Registry().Counter("fleet_steals_total", "").Value(); got < 1 {
		t.Errorf("fleet_steals_total = %d, want >= 1", got)
	}
	got, _ := c.Status(st.ID)
	if got.Done != 1 {
		t.Errorf("done = %d, want exactly 1 (no double count)", got.Done)
	}
	if fast.count() == 0 {
		t.Errorf("the thief never received the stolen cell")
	}
}

func TestDrainingWorkerIsNotAssignedCells(t *testing.T) {
	leak.Check(t)
	draining := newFakeWorker("done")
	draining.setDraining(true)
	healthy := newFakeWorker("done")
	defer draining.ts.Close()
	defer healthy.ts.Close()
	c := testCoord(t, t.TempDir(), draining.ts.URL, healthy.ts.URL)
	defer c.Stop()

	_, id := coordSweep(t, c)
	waitFor(t, "sweep done", func() bool {
		got, _ := c.Status(id)
		return got.Terminal()
	})
	if n := draining.count(); n != 0 {
		t.Errorf("draining worker received %d submissions, want 0", n)
	}
	got, _ := c.Status(id)
	for _, w := range got.Workers {
		if w.URL == draining.ts.URL {
			if !w.Draining || w.Live {
				t.Errorf("draining worker reported as %+v", w)
			}
		}
	}
}

func TestCoordinatorRestartResumesFromLedger(t *testing.T) {
	leak.Check(t)
	w := newFakeWorker("done")
	defer w.ts.Close()
	dir := t.TempDir()
	c := testCoord(t, dir, w.ts.URL)

	spec, id := coordSweep(t, c)
	waitFor(t, "sweep done", func() bool {
		got, _ := c.Status(id)
		return got.Terminal()
	})
	first, _ := c.Status(id)
	c.Stop()
	submissionsBefore := w.count()

	// Reopen on the same state dir with no workers at all: everything
	// must come back from the ledger alone.
	c2, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Stop()
	got, ok := c2.Status(id)
	if !ok {
		t.Fatalf("sweep %s lost across restart", id)
	}
	if got.State != "done" || got.Done != first.Done {
		t.Fatalf("restarted status = %+v, want done %d", got, first.Done)
	}
	if got.TableText != first.TableText {
		t.Errorf("table changed across restart:\n--- before\n%s--- after\n%s", first.TableText, got.TableText)
	}
	if got.TableText != expectedTable(spec) {
		t.Errorf("restarted table differs from local merge")
	}
	if w.count() != submissionsBefore {
		t.Errorf("restart re-ran finished cells: %d -> %d submissions", submissionsBefore, w.count())
	}
}

func TestFailingCellRetriesThenFailsTerminally(t *testing.T) {
	leak.Check(t)
	// A worker whose jobs always fail: the cell must burn its attempts
	// and land terminally failed, and the sweep must end partial with
	// the failure footnoted in the table.
	w := newFakeWorker("fail")
	defer w.ts.Close()
	c := testCoord(t, t.TempDir(), w.ts.URL)
	defer c.Stop()

	spec := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	waitFor(t, "sweep terminal", func() bool {
		got, _ := c.Status(st.ID)
		return got.Terminal()
	})
	got, _ := c.Status(st.ID)
	if got.State != "partial" || got.Failed != 1 {
		t.Fatalf("status = %+v, want partial with 1 failed", got)
	}
	if got.TableText == "" {
		t.Fatalf("partial sweep has no table")
	}
	if retries := c.Registry().Counter("fleet_cell_retries_total", "").Value(); retries != 1 {
		t.Errorf("fleet_cell_retries_total = %d, want 1 (2 attempts)", retries)
	}
}

// TestLongPollSeesFinishedCellsAtOnce runs a sweep on real in-process
// rvpd workers with a 30s heartbeat. The coordinator must see each cell
// finished when its result is durable, not at the next heartbeat.
func TestLongPollSeesFinishedCellsAtOnce(t *testing.T) {
	leak.Check(t)
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{StateDir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer srv.Close()
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	c, err := Open(Config{
		StateDir:  t.TempDir(),
		Workers:   urls,
		Lease:     2 * time.Minute,
		Heartbeat: 30 * time.Second,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()

	start := time.Now()
	spec, id := coordSweep(t, c)
	var st SweepStatus
	for {
		st, _ = c.Status(id)
		if st.Terminal() {
			break
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Fatalf("4-cell sweep still %+v after %v: finished cells wait for the heartbeat", st, took)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != "done" || st.Done != 4 {
		t.Fatalf("status = %+v, want done 4/0", st)
	}
	ref, err := Reference(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if st.TableText != ref.String() {
		t.Errorf("fleet table differs from Reference:\n--- fleet\n%s--- reference\n%s", st.TableText, ref.String())
	}
}

// TestCellLongerThanStealAgeFinishes: the steal age is far below one
// cell's run time, so the idle worker steals the running cell. The old
// owner must keep polling its own job rather than go idle and steal the
// cell back under a fresh key, which would queue behind its abandoned
// job on a one-slot worker, and so on forever.
func TestCellLongerThanStealAgeFinishes(t *testing.T) {
	leak.Check(t)
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Config{StateDir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer srv.Close()
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	c, err := Open(Config{
		StateDir:  t.TempDir(),
		Workers:   urls,
		Lease:     time.Hour, // expiry must not be the rescue
		Heartbeat: 10 * time.Millisecond,
		Poll:      10 * time.Millisecond,
		StealAge:  30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()

	// One cell of 2M instructions runs for hundreds of milliseconds, many
	// steal ages.
	spec := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 2_000_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for !st.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("cell never finished: %+v (steals %d)", st,
				c.Registry().Counter("fleet_steals_total", "").Value())
		}
		time.Sleep(10 * time.Millisecond)
		st, _ = c.Status(st.ID)
	}
	if st.State != "done" || st.Done != 1 {
		t.Fatalf("status = %+v, want done 1/0", st)
	}
	if steals := c.Registry().Counter("fleet_steals_total", "").Value(); steals < 1 {
		t.Fatalf("no steal fired: the cell ran shorter than StealAge")
	}
	ref, err := Reference(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if st.TableText != ref.String() {
		t.Errorf("fleet table differs from Reference:\n--- fleet\n%s--- reference\n%s", st.TableText, ref.String())
	}
}

// TestPollPacingAgainstWaitIgnoringWorker: a worker that answers every
// status poll at once (it ignores ?wait=) must still be polled at most
// once per heartbeat.
func TestPollPacingAgainstWaitIgnoringWorker(t *testing.T) {
	leak.Check(t)
	w := newFakeWorker("hang")
	defer w.ts.Close()
	const heartbeat = 50 * time.Millisecond
	c, err := Open(Config{
		StateDir:  t.TempDir(),
		Workers:   []string{w.ts.URL},
		Lease:     time.Hour,
		Heartbeat: heartbeat,
		StealAge:  time.Hour,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()
	st, err := c.SubmitSweep(SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000})
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	waitFor(t, "the cell to be leased", func() bool {
		got, _ := c.Status(st.ID)
		return got.Leased == 1 && w.count() == 1
	})
	before := w.pollCount()
	const window = time.Second
	time.Sleep(window)
	if polls, limit := w.pollCount()-before, int(window/heartbeat)+2; polls > limit {
		t.Errorf("%d status polls in %v at a %v heartbeat, want <= %d", polls, window, heartbeat, limit)
	}
}
