package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rvpsim/internal/testutil/leak"
	"rvpsim/internal/vfs"
)

// TestCoordinatorENOSPCDegradesAndRecovers: a coordinator whose ledger
// disk stops taking writes sheds new sweeps with a typed error (503 +
// Retry-After over HTTP) instead of crashing, answers resubmits of
// known sweeps from memory, and resumes admissions once its storage
// probe sees the disk return.
func TestCoordinatorENOSPCDegradesAndRecovers(t *testing.T) {
	fault := vfs.NewFault(vfs.OS)
	c, err := Open(Config{
		StateDir:  t.TempDir(),
		FS:        fault,
		Lease:     400 * time.Millisecond,
		Heartbeat: 20 * time.Millisecond, // janitor cadence; the probe keeps StorageProbeEvery
		Poll:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()
	ts := httptest.NewServer(Handler(c))
	defer ts.Close()

	spec := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}

	fault.SetPersistent(vfs.ENOSPC)
	other := SweepSpec{Workloads: []string{"li"}, Predictors: []string{"rvp"}, Insts: 5_000}
	if _, err := c.SubmitSweep(other); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("submit under ENOSPC: %v, want ErrStorageDegraded", err)
	}
	if !c.StorageDegraded() {
		t.Fatalf("coordinator not marked degraded")
	}

	// Resubmits of an already-admitted sweep still answer from memory.
	if st2, err := c.SubmitSweep(spec); err != nil || st2.ID != st.ID {
		t.Fatalf("idempotent resubmit while degraded: %+v, %v", st2, err)
	}

	// Over HTTP the shed is a 503 with a retry hint, and the gauge flips.
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		jsonBody(t, SweepSpec{Workloads: []string{"perl"}, Predictors: []string{"rvp"}, Insts: 5_000}))
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("degraded submit: %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if g := c.Registry().Gauge("fleet_storage_degraded", "").Value(); g != 1 {
		t.Fatalf("fleet_storage_degraded = %d while degraded, want 1", g)
	}

	// Disk returns; the storage probe must clear the flag.
	fault.SetPersistent(nil)
	deadline := time.Now().Add(10 * time.Second)
	for c.StorageDegraded() {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never recovered")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.SubmitSweep(other); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
}

// TestCoordinatorENOSPCRecoversAtStorageProbeEvery: the storage probe
// keeps its own cadence. With an hour-long heartbeat, a coordinator
// whose disk returns must recover within about two probe periods.
func TestCoordinatorENOSPCRecoversAtStorageProbeEvery(t *testing.T) {
	fault := vfs.NewFault(vfs.OS)
	const probeEvery = 100 * time.Millisecond
	c, err := Open(Config{
		StateDir:          t.TempDir(),
		FS:                fault,
		Heartbeat:         time.Hour,
		StorageProbeEvery: probeEvery,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()

	fault.SetPersistent(vfs.ENOSPC)
	if _, err := c.SubmitSweep(SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5_000}); !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("submit under ENOSPC: %v, want ErrStorageDegraded", err)
	}
	fault.SetPersistent(nil)
	start := time.Now()
	// Two probe periods, plus slack for a loaded scheduler.
	limit := 2*probeEvery + 200*time.Millisecond
	for c.StorageDegraded() {
		if took := time.Since(start); took > limit {
			t.Fatalf("still degraded %v after the disk returned (StorageProbeEvery %v)", took, probeEvery)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// TestCoordinatorENOSPCMidSweep: the ledger disk fails while a sweep is
// running. The cell that finishes first cannot be recorded, which trips
// the storage guard. From then on the coordinator must grant no lease
// (a result it could not record would be lost) yet keep answering
// Status. Once the disk returns, the sweep must finish with every cell's
// done record in the ledger.
func TestCoordinatorENOSPCMidSweep(t *testing.T) {
	leak.Check(t)
	fault := vfs.NewFault(vfs.OS)
	w := newFakeWorker("hang")
	defer w.ts.Close()
	dir := t.TempDir()
	c, err := Open(Config{
		StateDir:          dir,
		FS:                fault,
		Workers:           []string{w.ts.URL},
		Lease:             400 * time.Millisecond,
		Heartbeat:         20 * time.Millisecond,
		Poll:              10 * time.Millisecond,
		StorageProbeEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()
	spec, id := coordSweep(t, c)
	waitFor(t, "the worker to hold a lease", func() bool { return w.count() == 1 })

	// status fails the test when Status takes over a second. It heals the
	// disk first, so a coordinator wedged on its ledger can still stop.
	status := func() SweepStatus {
		t.Helper()
		got := make(chan SweepStatus, 1)
		go func() {
			st, _ := c.Status(id)
			got <- st
		}()
		select {
		case st := <-got:
			return st
		case <-time.After(time.Second):
			fault.SetPersistent(nil)
			t.Fatalf("Status blocked over 1s while the ledger disk failed")
			return SweepStatus{}
		}
	}

	fault.SetPersistent(vfs.ENOSPC)
	w.setMode("done")
	for deadline := time.Now().Add(15 * time.Second); !c.StorageDegraded(); {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never reported degraded: %+v", status())
		}
		status()
		time.Sleep(10 * time.Millisecond)
	}
	subs := w.count()
	// Two lease periods: the unrecorded cell's lease expires meanwhile,
	// so every cell is ready and none may be handed out.
	for end := time.Now().Add(2 * 400 * time.Millisecond); time.Now().Before(end); {
		if st := status(); st.Terminal() || st.Done != 0 {
			t.Fatalf("sweep progressed on an unwritable ledger: %+v", st)
		}
		if n := w.count(); n != subs {
			t.Fatalf("worker got %d new submissions while storage was degraded", n-subs)
		}
		time.Sleep(20 * time.Millisecond)
	}

	fault.SetPersistent(nil)
	deadline := time.Now().Add(15 * time.Second)
	st := status()
	for !st.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished after the disk returned: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
		st = status()
	}
	if st.State != "done" || st.Done != 4 {
		t.Fatalf("status = %+v, want done 4/0", st)
	}
	if st.TableText != expectedTable(spec) {
		t.Errorf("table differs from local merge:\n--- fleet\n%s--- local\n%s", st.TableText, expectedTable(spec))
	}
	c.Stop()
	l, rp, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("replaying ledger: %v", err)
	}
	defer l.Close()
	for _, cell := range spec.Cells() {
		if _, ok := rp.Done[id][cell.ID]; !ok {
			t.Errorf("ledger has no done record for cell %s", cell.ID)
		}
	}
}
