package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/faultinject"
)

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int64
	event string
	data  JobEvent
}

// readSSE consumes an event stream until a terminal event, maxFrames
// frames, or the body ends, returning the parsed frames.
func readSSE(t *testing.T, body *bufio.Scanner, maxFrames int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var data string
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if data == "" {
				continue
			}
			if err := json.Unmarshal([]byte(data), &cur.data); err != nil {
				t.Fatalf("bad data line %q: %v", data, err)
			}
			frames = append(frames, cur)
			if terminalEvent(cur.event) || len(frames) >= maxFrames {
				return frames
			}
			cur, data = sseFrame{}, ""
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// keepalive comment
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func getSSE(t *testing.T, ts *httptest.Server, id string, lastEventID int64) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(lastEventID))
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	return resp
}

// TestSSEStreamFramingAndResume walks a whole job through its event
// stream: correct SSE framing (id/event/data triplets, ids dense and
// increasing), the full lifecycle sequence (queued, started, progress
// heartbeats with committed counts and IPC, done), and Last-Event-ID
// resume — a second subscription after N sees exactly the events past N
// replayed from the ring, including after the job finished.
func TestSSEStreamFramingAndResume(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.ProgressEvery = 1_000
	})
	st := decodeStatus(t, postJob(t, ts, `{"kind":"run","workload":"go","predictor":"rvp","insts":30000}`, ""))

	resp := getSSE(t, ts, st.ID, 0)
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", got)
	}
	frames := readSSE(t, bufio.NewScanner(resp.Body), 10_000)
	if len(frames) < 4 {
		t.Fatalf("got %d frames, want at least queued/started/progress/done", len(frames))
	}
	for i, f := range frames {
		if f.id != int64(i+1) {
			t.Fatalf("frame %d has id %d, want dense 1-based ids", i, f.id)
		}
		if f.id != f.data.Seq {
			t.Fatalf("frame id %d != payload seq %d", f.id, f.data.Seq)
		}
		if f.event != f.data.Type {
			t.Fatalf("frame event %q != payload type %q", f.event, f.data.Type)
		}
		if f.data.Job != st.ID {
			t.Fatalf("event for job %q, want %q", f.data.Job, st.ID)
		}
	}
	if frames[0].event != EvQueued || frames[1].event != EvStarted {
		t.Fatalf("stream starts %q,%q, want queued,started", frames[0].event, frames[1].event)
	}
	last := frames[len(frames)-1]
	if last.event != EvDone {
		t.Fatalf("stream ends with %q, want done", last.event)
	}
	progress := 0
	for _, f := range frames {
		if f.event == EvProgress {
			progress++
			if f.data.Committed == 0 || f.data.Cycles <= 0 || f.data.IPC <= 0 {
				t.Fatalf("progress payload incomplete: %+v", f.data)
			}
		}
	}
	if progress == 0 {
		t.Fatalf("no progress heartbeats over 30k insts at 1k cadence")
	}

	// Resume after the job is done: Last-Event-ID = N-2 must replay
	// exactly the last two events from the ring.
	resume := getSSE(t, ts, st.ID, last.id-2)
	defer resume.Body.Close()
	replayed := readSSE(t, bufio.NewScanner(resume.Body), 10_000)
	if len(replayed) != 2 {
		t.Fatalf("resume replayed %d frames, want 2", len(replayed))
	}
	if replayed[0].id != last.id-1 || replayed[1].id != last.id {
		t.Fatalf("resume ids = %d,%d, want %d,%d", replayed[0].id, replayed[1].id, last.id-1, last.id)
	}
	if replayed[1].event != EvDone {
		t.Fatalf("resume did not end on the terminal event: %q", replayed[1].event)
	}
}

// TestSSEUnknownJob pins the 404 on streaming a job that never existed.
func TestSSEUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := getSSE(t, ts, "jnope", 0)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job = %d, want 404", resp.StatusCode)
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
// feed no longer exists (daemon restarted after it finished): the
// stream serves one synthetic terminal frame from the store record.
func TestSyntheticTerminalEventAfterRestart(t *testing.T) {
	state := t.TempDir()
	srv1, ts1 := newTestServer(t, func(c *Config) { c.StateDir = state })
	st := decodeStatus(t, postJob(t, ts1, runBody, "restart-key"))
	waitTerminal(t, ts1, st.ID)
	ts1.Close()
	srv1.Close()

	_, ts2 := newTestServer(t, func(c *Config) { c.StateDir = state })
	resp := getSSE(t, ts2, st.ID, 0)
	defer resp.Body.Close()
	frames := readSSE(t, bufio.NewScanner(resp.Body), 10)
	if len(frames) != 1 || frames[0].event != EvDone {
		t.Fatalf("restarted watch frames = %+v, want one synthetic done", frames)
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

// TestFeedOverflowResubscribe pins the hub's no-blocking contract: a
// subscriber that stops draining is closed, not waited on, and a
// resubscription from its last seen sequence replays what the ring
// still holds.
func TestFeedOverflowResubscribe(t *testing.T) {
	f := newJobFeed("j1", 4)
	_, sub := f.subscribe(0)
	for i := 0; i < 10; i++ { // channel cap is the ring cap (4): overflow
		f.publish(JobEvent{Type: EvProgress})
	}
	var lastSeen int64
	for ev := range sub.ch { // closed by the overflow
		lastSeen = ev.Seq
	}
	if lastSeen == 0 {
		t.Fatalf("subscriber saw nothing before overflow close")
	}
	replay, sub2 := f.subscribe(lastSeen)
	if sub2 == nil {
		t.Fatalf("feed terminal without a terminal event")
	}
	defer f.unsubscribe(sub2)
	// The ring holds the last 4 events (seqs 7-10); everything after
	// lastSeen that survived eviction must replay in order.
	if len(replay) == 0 {
		t.Fatalf("no replay after overflow")
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
// direction at once — parallel submissions, concurrent SSE watchers,
// metrics and trace readers — and is the service-level -race exercise
// for concurrent span emission and event publishing from the worker
// pool plus HTTP handlers.
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
	// Watchers: one SSE stream per job, drained to the terminal event.
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp := getSSE(t, ts, id, 0)
			defer resp.Body.Close()
			frames := readSSE(t, bufio.NewScanner(resp.Body), 100_000)
			if len(frames) == 0 || !terminalEvent(frames[len(frames)-1].event) {
				t.Errorf("job %s: stream ended without terminal event (%d frames)", id, len(frames))
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
