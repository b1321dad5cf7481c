// Soak/chaos test: N concurrent retrying clients against an in-process
// daemon whose simulations have injected faults (transient checkpoint
// failures, stretched memory latencies, and one workload with a sticky
// hard fault). The invariants under load:
//
//   - every submission eventually lands (the client's backoff absorbs
//     429/503 sheds),
//   - every accepted job reaches a terminal state: succeeded, or failed
//     with a typed error — no job is silently dropped,
//   - admission control actually shed under the load (the queue was
//     driven past its depth), and
//   - the daemon's goroutines are gone after Close (no leaks).
//
// The test lives in package server_test because it drives the service
// through internal/client, which imports internal/server.
package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/exp"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/server"
	"rvpsim/internal/testutil/leak"
)

func TestSoakConcurrentClientsWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	// Goroutine-leak check: everything the daemon starts must be gone
	// after Close.
	leak.Check(t)

	srv, err := server.New(server.Config{
		StateDir:     t.TempDir(),
		Workers:      2,
		QueueDepth:   2, // small on purpose: the load must overrun admission
		DefaultInsts: 5_000,
		JobTimeout:   2 * time.Minute,
		DrainTimeout: 10 * time.Second,
		Faults: map[string]faultinject.Config{
			// One transient checkpoint failure: the first attempt fails,
			// the runner's retry recovers.
			"go": {Transient: 1},
			// Timing chaos only: stretched memory latencies perturb the
			// run but never fail it.
			"perl": {MemEvery: 50, MemExtra: 20},
			// Sticky hard fault: every attempt fails non-transiently.
			"li": {FailAfter: 1},
		},
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())

	// Phase 1 — deterministic overload: occupy both workers with long
	// jobs, fill the queue to its depth, and verify that a burst of raw
	// (non-retrying) submissions is shed with 429 + Retry-After on every
	// rejection. Without this staging the tiny soak jobs drain faster
	// than clients can pile up and admission control never fires.
	plugCl := client.New(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	var plugged []string
	for i := 0; i < 2; i++ {
		// Big enough to hold a worker well past the burst below (also
		// without -race), small enough that even the ~10-20x race-detector
		// slowdown keeps it far inside the job deadline.
		spec := exp.JobSpec{Kind: "run", Workload: "m88ksim", Predictor: "rvp",
			Insts: 6_000_000, ProfileInsts: 500_000}
		st, err := plugCl.Submit(ctx, spec, fmt.Sprintf("soak-plug-%d", i))
		if err != nil {
			t.Fatalf("plug submit %d: %v", i, err)
		}
		plugged = append(plugged, st.ID)
	}
	waitInflight := time.Now().Add(30 * time.Second)
	for srv.Registry().Gauge("srv_inflight_jobs", "").Value() != 2 {
		if time.Now().After(waitInflight) {
			t.Fatalf("plug jobs never occupied both workers")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 2; i++ { // fill the queue to its depth
		spec := exp.JobSpec{Kind: "run", Workload: "m88ksim", Predictor: "rvp", Insts: 5_000}
		st, err := plugCl.Submit(ctx, spec, fmt.Sprintf("soak-fill-%d", i))
		if err != nil {
			t.Fatalf("fill submit %d: %v", i, err)
		}
		plugged = append(plugged, st.ID)
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"run","workload":"go","predictor":"rvp","insts":5000}`))
		if err != nil {
			t.Fatalf("burst post %d: %v", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("burst post %d = %d, want 429 with workers plugged and queue full", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("burst rejection %d carried no Retry-After", i)
		}
	}

	// Phase 2 — concurrent retrying clients against the still-plugged
	// service: every submission must eventually land via backoff.
	const (
		nClients      = 6
		jobsPerClient = 4
	)
	workloads := []string{"go", "perl", "li", "m88ksim"}

	type landed struct {
		id       string
		workload string
	}
	var (
		mu       sync.Mutex
		accepted []landed
		errs     []error
	)
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := client.New(ts.URL,
				client.WithBackoff(client.Backoff{Base: 5 * time.Millisecond, Max: 2 * time.Second, Factor: 2}),
				client.WithMaxAttempts(60),
				client.WithSeed(int64(c)))
			for j := 0; j < jobsPerClient; j++ {
				wl := workloads[(c+j)%len(workloads)]
				spec := exp.JobSpec{Kind: "run", Workload: wl, Predictor: "rvp", Insts: 5_000}
				key := fmt.Sprintf("soak-c%d-j%d", c, j)
				st, err := cl.Submit(ctx, spec, key)
				mu.Lock()
				if err != nil {
					errs = append(errs, fmt.Errorf("client %d job %d (%s): %w", c, j, wl, err))
				} else {
					accepted = append(accepted, landed{id: st.ID, workload: wl})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		t.Errorf("submission lost: %v", err)
	}
	if len(accepted) != nClients*jobsPerClient {
		t.Fatalf("landed %d of %d submissions", len(accepted), nClients*jobsPerClient)
	}

	// Every accepted job must reach a terminal state — including the
	// plug and fill jobs from the overload phase.
	cl := client.New(ts.URL)
	for _, id := range plugged {
		st, err := cl.Wait(ctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("plug job %s never terminal: %v", id, err)
		}
		if st.State != server.StateSucceeded {
			t.Errorf("plug job %s state = %s (%+v), want succeeded", id, st.State, st.Error)
		}
	}
	for _, a := range accepted {
		st, err := cl.Wait(ctx, a.id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s (%s) never terminal: %v", a.id, a.workload, err)
		}
		switch a.workload {
		case "li":
			if st.State != server.StateFailed {
				t.Errorf("hard-faulted job %s state = %s, want failed", a.id, st.State)
			} else if st.Error == nil || st.Error.Message == "" {
				t.Errorf("failed job %s has no typed error", a.id)
			}
		default:
			if st.State != server.StateSucceeded {
				t.Errorf("job %s (%s) state = %s (%+v), want succeeded", a.id, a.workload, st.State, st.Error)
			}
		}
	}

	// Accounting: nothing dropped, nothing still pending, and the queue
	// really was driven past admission.
	reg := srv.Registry()
	succeeded := reg.Counter("srv_jobs_succeeded_total", "").Value()
	failed := reg.Counter("srv_jobs_failed_total", "").Value()
	submitted := reg.Counter("srv_jobs_submitted_total", "").Value()
	if want := int64(len(accepted) + len(plugged)); submitted != want {
		t.Errorf("srv_jobs_submitted_total = %d, want %d", submitted, want)
	}
	if succeeded+failed != submitted {
		t.Errorf("terminal jobs %d+%d != submitted %d: work was dropped", succeeded, failed, submitted)
	}
	if pending := srv.Store().Pending(); len(pending) != 0 {
		t.Errorf("%d jobs still pending after the soak: %+v", len(pending), pending)
	}
	if shed := reg.Counter("srv_shed_queue_total", "").Value(); shed == 0 {
		t.Errorf("queue never shed: the soak did not drive admission control")
	}
	if retries := reg.Counter("exp_transient_retries", "").Value(); retries == 0 {
		t.Errorf("no transient retries recorded: the fault injection did not fire")
	}

	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
