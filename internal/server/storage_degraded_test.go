package server

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/vfs"
)

// TestSubmitENOSPCDegradesAndRecovers is the graceful-degradation
// contract end to end: when the disk stops taking durable writes the
// daemon sheds submissions with 503 + Retry-After and flips /readyz —
// it does not crash and does not run unacknowledged work — and once
// space returns the storage probe restores service without a restart.
func TestSubmitENOSPCDegradesAndRecovers(t *testing.T) {
	fault := vfs.NewFault(vfs.OS)
	srv, ts := newTestServer(t, func(c *Config) {
		c.FS = fault
		c.StorageProbeEvery = 20 * time.Millisecond
	})

	// Healthy baseline: a job submits and completes.
	resp := postJob(t, ts, runBody, "healthy")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy submit: %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	waitTerminal(t, ts, st.ID)

	// Pull the disk.
	fault.SetPersistent(vfs.ENOSPC)
	resp = postJob(t, ts, runBody, "doomed")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under ENOSPC: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("503 under ENOSPC carries no Retry-After")
	}
	resp.Body.Close()
	if !srv.storageDegraded.Load() {
		t.Fatalf("server not marked degraded after failed append")
	}

	// Further submissions shed immediately (degraded flag, not a fresh
	// disk failure each time).
	resp = postJob(t, ts, runBody, "doomed2")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second submit under ENOSPC: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	// readyz reflects the degradation.
	code, ready := getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || !ready.StorageDegraded || ready.Ready {
		t.Fatalf("readyz under ENOSPC: %d %+v", code, ready)
	}

	// Space returns; the probe must restore service.
	fault.SetPersistent(nil)
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, ready = getReadyz(t, ts.URL)
		if code == http.StatusOK && ready.Ready && !ready.StorageDegraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never recovered: %d %+v", code, ready)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp = postJob(t, ts, runBody, "recovered")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery: %d", resp.StatusCode)
	}
	st = decodeStatus(t, resp)
	fin := waitTerminal(t, ts, st.ID)
	if fin.State != StateSucceeded {
		t.Fatalf("post-recovery job ended %s: %+v", fin.State, fin.Error)
	}

	// The doomed submissions must not have silently run: their keys map
	// to nothing.
	if _, ok := srv.store.ByKey("doomed"); ok {
		t.Fatalf("shed submission landed in the store")
	}
}

func getReadyz(t *testing.T, base string) (int, readyStatus) {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer resp.Body.Close()
	var st readyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("readyz body: %v", err)
	}
	return resp.StatusCode, st
}

// createRecorder is an FS that notes every file it is asked to create.
type createRecorder struct {
	vfs.FS
	mu      sync.Mutex
	created map[string]bool
}

func (c *createRecorder) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if flag&os.O_CREATE != 0 {
		c.mu.Lock()
		c.created[name] = true
		c.mu.Unlock()
	}
	return c.FS.OpenFile(name, flag, perm)
}

// TestJobStateRemovedThroughFS checks that a finished job's state dir is
// removed through Config.FS, not the os package: on an in-memory FS, a
// succeeded job and a failed job each wrote a journal.jsonl while they
// ran, and neither leaves it behind.
func TestJobStateRemovedThroughFS(t *testing.T) {
	m := vfs.NewMem()
	rec := &createRecorder{FS: m, created: map[string]bool{}}
	srv, ts := newTestServer(t, func(c *Config) {
		c.FS = rec
		c.Faults = map[string]faultinject.Config{"li": {FailAfter: 1}}
	})
	for _, c := range []struct {
		body string
		want string
	}{
		{runBody, StateSucceeded},
		{`{"kind":"run","workload":"li","predictor":"rvp","insts":5000}`, StateFailed},
	} {
		final := waitTerminal(t, ts, decodeStatus(t, postJob(t, ts, c.body, "")).ID)
		if final.State != c.want {
			t.Fatalf("%s: job ended %s, want %s", c.body, final.State, c.want)
		}
		journal := exp.JournalPath(srv.jobDir(final.ID))
		rec.mu.Lock()
		wrote := rec.created[journal]
		rec.mu.Unlock()
		if !wrote {
			t.Fatalf("%s: the job never created %s", c.body, journal)
		}
		if _, err := m.Stat(journal); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: %s left behind (stat err %v)", c.body, journal, err)
		}
		if _, err := m.Stat(srv.jobDir(final.ID)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: job state dir left behind (stat err %v)", c.body, err)
		}
	}
}
