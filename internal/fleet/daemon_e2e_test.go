// One-daemon e2e: the sweep coordinator is a part of every rvpd, not a
// separate process. A coordinating rvpd dispatches to one worker named
// by -peers while a second worker joins through -advertise; the merged
// table must be byte-identical to a single-node run, one /metrics must
// carry the service, fleet and WAL families, SIGTERM must exit 0, and a
// restart on the same -state must answer the finished sweep from the
// cell ledger.
package fleet_test

import (
	"context"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"rvpsim/internal/fleet"
	"rvpsim/internal/testutil/leak"
)

func TestRvpdHostsSweepCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("rvpd coordinator e2e skipped in -short mode")
	}
	leak.Check(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rvpd")
	if out, err := exec.Command("go", "build", "-o", bin, "rvpsim/cmd/rvpd").CombinedOutput(); err != nil {
		t.Fatalf("building rvpd: %v\n%s", err, out)
	}

	peer, peerURL, peerLogs := startWorker(t, bin, filepath.Join(tmp, "peer"), filepath.Join(tmp, "addr-peer"))
	defer func() { peer.Process.Kill(); peer.Wait() }()
	coordState := filepath.Join(tmp, "coord")
	coord, coordURL, coordLogs := startWorker(t, bin, coordState, filepath.Join(tmp, "addr-coord"), "-peers", peerURL)
	defer func() { coord.Process.Kill(); coord.Wait() }()
	joiner, _, joinerLogs := startWorker(t, bin, filepath.Join(tmp, "joiner"), filepath.Join(tmp, "addr-joiner"),
		"-advertise", coordURL)
	defer func() { joiner.Process.Kill(); joiner.Wait() }()
	dumpLogs := func() {
		t.Logf("coordinator logs:\n%s\npeer logs:\n%s\njoiner logs:\n%s", coordLogs, peerLogs, joinerLogs)
	}

	metrics := func() string {
		resp, err := http.Get(coordURL + "/metrics")
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(metrics(), "\nfleet_workers_live 2\n") {
		if time.Now().After(deadline) {
			dumpLogs()
			t.Fatalf("the advertised worker never joined the -peers worker:\n%s", metrics())
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	cc := fleet.NewCoordClient(coordURL)
	spec := fleet.SweepSpec{Workloads: []string{"go", "li", "perl"}, Predictors: []string{"none", "rvp"}, Insts: 100_000}
	st, err := cc.SubmitSweep(ctx, spec)
	if err != nil {
		dumpLogs()
		t.Fatalf("POST /v1/sweeps on rvpd: %v", err)
	}
	final, err := cc.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		dumpLogs()
		t.Fatalf("waiting for the sweep: %v", err)
	}
	if final.State != "done" || final.Done != 6 {
		dumpLogs()
		t.Fatalf("sweep = %+v, want done 6/0", final)
	}
	if len(final.Workers) != 2 {
		t.Errorf("sweep ran on %d workers, want the -peers one and the advertised one: %+v", len(final.Workers), final.Workers)
	}
	ref, err := fleet.Reference(ctx, spec, 0)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if final.TableText != ref.String() {
		t.Errorf("merged table differs from Reference:\n--- fleet\n%s--- reference\n%s", final.TableText, ref.String())
	}

	// One registry: the job service, the coordinator and both WALs.
	m := metrics()
	for _, want := range []string{"\nsrv_", "\nfleet_cells_done 6\n", "\nwal_appends_total "} {
		if !strings.Contains(m, want) {
			t.Errorf("coordinating rvpd's /metrics lacks %q", strings.TrimSpace(want))
		}
	}

	if err := coord.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if err := coord.Wait(); err != nil {
		dumpLogs()
		t.Fatalf("rvpd exit after SIGTERM: %v, want 0", err)
	}

	// Restart on the same state directory, with no workers at all: the
	// finished sweep comes back from the ledger.
	coord, coordURL, coordLogs = startWorker(t, bin, coordState, filepath.Join(tmp, "addr-coord"))
	again, err := fleet.NewCoordClient(coordURL).Status(ctx, st.ID)
	if err != nil {
		dumpLogs()
		t.Fatalf("status after restart: %v", err)
	}
	if again.State != "done" || again.TableText != final.TableText {
		t.Errorf("after restart the sweep is %s with table\n%s\nwant done with\n%s", again.State, again.TableText, final.TableText)
	}
}
