// Cross-process kill-and-resume e2e: build the real rvpd binary, SIGTERM
// it mid-figure-sweep, restart it against the same state directory, and
// require the resumed job's table to be byte-identical to an
// uninterrupted in-process run of the same spec. This is the only test
// that proves the journal contract holds across an actual
// process boundary rather than a context cancellation.
package server_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/exp"
	"rvpsim/internal/server"
)

// e2eSpec is the sweep both the daemon and the in-process reference
// run. The budget is sized so the whole figure takes about a second on
// two cores, not milliseconds: the SIGTERM must land while the sweep is
// genuinely mid-flight even though the daemon simulates cells in
// parallel.
var e2eSpec = exp.JobSpec{Kind: "figure", Figure: "fig5", Insts: 500_000, ProfileInsts: 125_000, Threshold: 0.80}

// startDaemon launches the rvpd binary and waits for its bound address.
func startDaemon(t *testing.T, bin, state, addrFile string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	os.Remove(addrFile)
	// The drain deadline is far below the time left in the sweep, so a
	// SIGTERM cancels and requeues the job mid-flight on any host.
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", state, "-workers", "1",
		"-drain-timeout", "1ms")
	var logs bytes.Buffer
	cmd.Stdout = &logs
	cmd.Stderr = &logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting rvpd: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			return cmd, "http://" + string(raw), &logs
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("rvpd never wrote its address; logs:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stopDaemon SIGTERMs the daemon and waits for a clean exit.
func stopDaemon(t *testing.T, cmd *exec.Cmd, logs *bytes.Buffer) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rvpd exited uncleanly: %v; logs:\n%s", err, logs.String())
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("rvpd did not exit after SIGTERM; logs:\n%s", logs.String())
	}
}

func TestKillAndResumeAcrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rvpd")
	build := exec.Command("go", "build", "-o", bin, "rvpsim/cmd/rvpd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rvpd: %v\n%s", err, out)
	}
	state := filepath.Join(tmp, "state")
	addrFile := filepath.Join(tmp, "addr")

	// Daemon 1: submit the sweep and let it get partway.
	cmd1, base1, logs1 := startDaemon(t, bin, state, addrFile)
	cl := client.New(base1)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	st, err := cl.Submit(ctx, e2eSpec, "e2e-resume-key")
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// The job's simulation journal gains one record per finished sweep
	// cell. Wait for two — proof the sweep is genuinely mid-flight — then
	// pull the plug.
	journal := exp.JournalPath(filepath.Join(state, "jobs", st.ID))
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if raw, err := os.ReadFile(journal); err == nil && bytes.Count(raw, []byte{'\n'}) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never journaled two cells; logs:\n%s", logs1.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopDaemon(t, cmd1, logs1)

	// The dead daemon's store must show the job non-terminal (queued):
	// accepted, interrupted, not dropped.
	store, err := server.OpenStore(server.StorePath(state))
	if err != nil {
		t.Fatalf("opening dead daemon's store: %v", err)
	}
	rec, ok := store.Get(st.ID)
	store.Close()
	if !ok {
		t.Fatalf("job %s missing from the store after the kill", st.ID)
	}
	if rec.Terminal() {
		// The sweep outran the kill; the resume path was not exercised.
		t.Fatalf("job %s already terminal (%s) before the kill landed", st.ID, rec.State)
	}
	if rec.State != server.StateQueued {
		t.Fatalf("interrupted job state = %s, want queued (requeued by drain)", rec.State)
	}

	// Daemon 2 on the same state dir: the job must resume and finish
	// without resubmission.
	cmd2, base2, logs2 := startDaemon(t, bin, state, addrFile)
	cl2 := client.New(base2)
	final, err := cl2.Wait(ctx, st.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for resumed job: %v; logs:\n%s", err, logs2.String())
	}
	if final.State != server.StateSucceeded {
		t.Fatalf("resumed job state = %s (%+v); logs:\n%s", final.State, final.Error, logs2.String())
	}
	if final.Result == nil || final.Result.Text == "" {
		t.Fatalf("resumed job has no table text")
	}
	if final.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 (one per daemon)", final.Attempts)
	}
	stopDaemon(t, cmd2, logs2)

	// Byte-identical against an uninterrupted in-process run of the very
	// same spec.
	ref, err := exp.RunJob(context.Background(), e2eSpec, exp.Options{Parallel: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if final.Result.Text != ref.Text {
		t.Errorf("resumed table is not byte-identical to the uninterrupted run:\n--- resumed\n%s--- reference\n%s",
			final.Result.Text, ref.Text)
	}
}
