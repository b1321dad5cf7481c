package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

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
