package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/faultinject"
)

// watchStatus follows job id through long-polled status from after,
// the way a watching client does, and returns the events it saw up to
// the terminal one. It reports failures with t.Errorf, so watchers may
// run on their own goroutines.
func watchStatus(t *testing.T, ts *httptest.Server, id string, after int64) []JobEvent {
	t.Helper()
	var evs []JobEvent
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s?wait=5s&after=%d", ts.URL, id, after))
		if err != nil {
			t.Errorf("job %s: GET status: %v", id, err)
			return evs
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("job %s: status = %d (decode: %v)", id, resp.StatusCode, err)
			return evs
		}
		for _, ev := range st.Events {
			evs = append(evs, ev)
			after = ev.Seq
			if terminalEvent(ev.Type) {
				return evs
			}
		}
	}
	t.Errorf("job %s: no terminal event within 30s (%d events)", id, len(evs))
	return evs
}

// TestStatusEventsDenseAndResume walks a whole job through status
// watching: sequence numbers dense from 1, the full lifecycle in order
// (queued, started, progress heartbeats with committed counts and IPC,
// done), and resume — a status request with after=N answers exactly the
// events past N from the ring, including after the job finished. The
// job store never records those events.
func TestStatusEventsDenseAndResume(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.ProgressEvery = 1_000
	})
	st := decodeStatus(t, postJob(t, ts, `{"kind":"run","workload":"go","predictor":"rvp","insts":30000}`, ""))

	evs := watchStatus(t, ts, st.ID, 0)
	if len(evs) < 4 {
		t.Fatalf("got %d events, want at least queued/started/progress/done", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want dense 1-based seqs", i, ev.Seq)
		}
		if ev.Job != st.ID {
			t.Fatalf("event for job %q, want %q", ev.Job, st.ID)
		}
	}
	if evs[0].Type != EvQueued || evs[1].Type != EvStarted {
		t.Fatalf("events start %q,%q, want queued,started", evs[0].Type, evs[1].Type)
	}
	last := evs[len(evs)-1]
	if last.Type != EvDone {
		t.Fatalf("events end with %q, want done", last.Type)
	}
	progress := 0
	for _, ev := range evs[2 : len(evs)-1] {
		if ev.Type != EvProgress {
			t.Fatalf("%q between started and done, want only progress", ev.Type)
		}
		progress++
		if ev.Committed == 0 || ev.Cycles <= 0 || ev.IPC <= 0 {
			t.Fatalf("progress payload incomplete: %+v", ev)
		}
	}
	if progress == 0 {
		t.Fatalf("no progress heartbeats over 30k insts at 1k cadence")
	}

	// Resume after the job is done: after = N-2 must answer exactly the
	// last two events from the ring, at once.
	code, done, took := getStatus(t, context.Background(),
		fmt.Sprintf("%s/v1/jobs/%s?wait=5s&after=%d", ts.URL, st.ID, last.Seq-2))
	if code != http.StatusOK || done.State != StateSucceeded || took > 2*time.Second {
		t.Fatalf("resume = %d %s after %v, want 200 succeeded at once", code, done.State, took)
	}
	if len(done.Events) != 2 || done.Events[0] != evs[len(evs)-2] || done.Events[1] != last {
		t.Fatalf("resume events = %+v, want the last two %+v", done.Events, evs[len(evs)-2:])
	}
	// Past the terminal event there is nothing more, not a second one.
	if _, past, _ := getStatus(t, context.Background(), fmt.Sprintf("%s/v1/jobs/%s?after=%d", ts.URL, st.ID, last.Seq)); past.Events != nil {
		t.Fatalf("status after the terminal event answers %+v, want no events", past.Events)
	}
	// Without after, no events.
	if _, plain, _ := getStatus(t, context.Background(), ts.URL+"/v1/jobs/"+st.ID); plain.Events != nil {
		t.Fatalf("status without after carries events: %+v", plain.Events)
	}
	for _, a := range []string{"-1", "x", "1.5"} {
		if code, _, _ := getStatus(t, context.Background(), ts.URL+"/v1/jobs/"+st.ID+"?after="+a); code != http.StatusBadRequest {
			t.Errorf("after=%s: %d, want 400", a, code)
		}
	}

	// No job store line holds a status answer's events.
	raw, err := os.ReadFile(StorePath(srv.cfg.StateDir))
	if err != nil {
		t.Fatal(err)
	}
	for n, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var env struct {
			Rec map[string]json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil || env.Rec == nil {
			t.Fatalf("jobs.jsonl line %d unreadable (%v): %s", n+1, err, line)
		}
		if _, ok := env.Rec["events"]; ok {
			t.Fatalf("jobs.jsonl line %d stores events: %s", n+1, line)
		}
	}
}

// TestEventsRouteRemoved pins that job events are served by status
// alone: the old event-stream route is gone, and watching a job that
// never existed is a 404.
func TestEventsRouteRemoved(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st := decodeStatus(t, postJob(t, ts, runBody, ""))
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("events route = %d, want 404 or 405", resp.StatusCode)
	}
	if code, _, _ := getStatus(t, context.Background(), ts.URL+"/v1/jobs/jnope?wait=1s&after=0"); code != http.StatusNotFound {
		t.Fatalf("watching unknown job = %d, want 404", code)
	}
}

// TestFlightRecorderOnFailure injects a sticky fault and checks the
// failed job's record carries the flight dump: the events leading up to
// the failure, identified by spec digest only (redaction — the events
// embed no spec fields).
func TestFlightRecorderOnFailure(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.ProgressEvery = 1_000
		c.Faults = map[string]faultinject.Config{"go": {FailAfter: 1}}
	})
	st := decodeStatus(t, postJob(t, ts, `{"kind":"run","workload":"go","predictor":"rvp","insts":30000}`, ""))
	final := waitTerminal(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Flight == nil {
		t.Fatalf("failed job has no flight record")
	}
	spec := final.Spec
	if final.Flight.SpecDigest != spec.Digest() {
		t.Fatalf("flight digest %q != spec digest %q", final.Flight.SpecDigest, spec.Digest())
	}
	if len(final.Flight.Events) < 2 {
		t.Fatalf("flight record has %d events, want at least queued+started", len(final.Flight.Events))
	}
	if final.Flight.Events[0].Type != EvQueued {
		t.Fatalf("flight record starts with %q, want queued", final.Flight.Events[0].Type)
	}
	for _, ev := range final.Flight.Events {
		if terminalEvent(ev.Type) {
			t.Fatalf("flight record contains terminal event %q; it must be the pre-failure story", ev.Type)
		}
	}
	if final.TraceID == "" {
		t.Fatalf("failed job has no trace ID")
	}
}

// TestSyntheticTerminalEventAfterRestart covers watching a job whose
// feed no longer exists (daemon restarted after it finished): status
// answers one synthetic terminal event from the store record.
func TestSyntheticTerminalEventAfterRestart(t *testing.T) {
	state := t.TempDir()
	srv1, ts1 := newTestServer(t, func(c *Config) { c.StateDir = state })
	st := decodeStatus(t, postJob(t, ts1, runBody, "restart-key"))
	waitTerminal(t, ts1, st.ID)
	ts1.Close()
	srv1.Close()

	_, ts2 := newTestServer(t, func(c *Config) { c.StateDir = state })
	evs := watchStatus(t, ts2, st.ID, 0)
	if len(evs) != 1 || evs[0].Type != EvDone || evs[0].Seq != 1 {
		t.Fatalf("restarted watch events = %+v, want one synthetic done", evs)
	}
}

// TestWorkerPoolGauge pins the fleet-introspection metric: the
// worker-pool gauge on /metrics.
func TestWorkerPoolGauge(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Workers = 3 })

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		buf.WriteString(sc.Text())
		buf.WriteByte('\n')
	}
	if body := buf.String(); !strings.Contains(body, "srv_workers_total 3") {
		t.Fatalf("/metrics missing %q:\n%s", "srv_workers_total 3", body)
	}
}

// TestFeedReplayAfterEviction pins the ring's replay contract: a
// watcher whose last seen event has been evicted gets what the ring
// still holds, dense and ending at the latest event.
func TestFeedReplayAfterEviction(t *testing.T) {
	f := newJobFeed("j1", 4)
	for i := 0; i < 10; i++ {
		f.publish(JobEvent{Type: EvProgress})
	}
	// The ring holds the last 4 events (seqs 7-10); seq 2 is long gone.
	replay, _, _ := f.since(2)
	if len(replay) != 4 || replay[0].Seq != 7 {
		t.Fatalf("replay = %+v, want seqs 7-10", replay)
	}
	for i := 1; i < len(replay); i++ {
		if replay[i].Seq != replay[i-1].Seq+1 {
			t.Fatalf("replay not dense: %+v", replay)
		}
	}
	if got := replay[len(replay)-1].Seq; got != 10 {
		t.Fatalf("replay ends at seq %d, want 10", got)
	}
}

// TestTelemetryConcurrent hammers the telemetry layer from every
// direction at once — parallel submissions, concurrent long-poll
// watchers, metrics and trace readers — and is the service-level -race
// exercise for concurrent span emission and event publishing from the
// worker pool plus HTTP handlers.
func TestTelemetryConcurrent(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 32
		c.ProgressEvery = 500
	})

	const jobs = 6
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		body := fmt.Sprintf(`{"kind":"run","workload":"go","predictor":"rvp","insts":%d}`, 8000+i*1000)
		st := decodeStatus(t, postJob(t, ts, body, fmt.Sprintf("conc-%d", i)))
		ids[i] = st.ID
	}
	// Watchers: two status watchers per job, followed to the terminal
	// event.
	for _, id := range append(ids, ids...) {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			evs := watchStatus(t, ts, id, 0)
			if len(evs) == 0 || !terminalEvent(evs[len(evs)-1].Type) {
				t.Errorf("job %s: watch ended without terminal event (%d events)", id, len(evs))
			}
			for i, ev := range evs {
				if ev.Seq != int64(i+1) {
					t.Errorf("job %s: event %d has seq %d, want dense", id, i, ev.Seq)
					return
				}
			}
		}(id)
	}
	// Pollers: metrics and trace endpoints while everything runs.
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp, err := ts.Client().Get(ts.URL + "/metrics"); err == nil {
					resp.Body.Close()
				}
				if resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + ids[0] + "/trace"); err == nil {
					resp.Body.Close()
				}
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}
	for _, id := range ids {
		waitTerminal(t, ts, id)
	}
	close(stop)
	wg.Wait()
}

// TestRunJobPublishesCommitted: a run job's simulation adds its Stats to
// the daemon's registry once, when it ends, so after one job
// rvpsim_committed_total holds exactly that job's Committed.
func TestRunJobPublishesCommitted(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	final := waitTerminal(t, ts, decodeStatus(t, postJob(t, ts, runBody, "")).ID)
	if final.State != StateSucceeded || final.Result == nil || final.Result.Stats == nil {
		t.Fatalf("job did not succeed with stats: %+v", final)
	}
	got := srv.Registry().Counter("rvpsim_committed_total", "").Value()
	if want := int64(final.Result.Stats.Committed); got != want {
		t.Errorf("rvpsim_committed_total = %d, want the job's Committed %d", got, want)
	}
}
