// Fleet chaos e2e: real rvpd worker processes, an in-process
// coordinator, and deliberate violence. One third of the fleet is
// SIGKILLed while it holds a cell lease, and the coordinator itself is
// stopped and reopened mid-sweep. The sweep must still finish with
//
//   - a result table byte-identical to a single-node reference run,
//   - no cell lost and none double-counted (the ledger shows zero
//     duplicate commits), and
//   - the kill felt: the first coordinator expired or stole the dead
//     worker's lease.
//
// This is the fleet analogue of the server's kill-and-resume e2e: the
// process boundary is real, the kill is a real SIGKILL, and the proof
// is a byte diff.
package fleet_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"rvpsim/internal/fleet"
	"rvpsim/internal/testutil/leak"
)

// startWorker launches one rvpd and waits for its bound address. Extra
// flags (timeouts, say) append after the baseline set.
func startWorker(t *testing.T, bin, state, addrFile string, extra ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	os.Remove(addrFile)
	args := []string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", state, "-workers", "1", "-drain-timeout", "1s"}
	cmd := exec.Command(bin, append(args, extra...)...)
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

func TestChaosFleetSurvivesWorkerAndCoordinatorLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet chaos e2e skipped in -short mode")
	}
	leak.Check(t)
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rvpd")
	if out, err := exec.Command("go", "build", "-o", bin, "rvpsim/cmd/rvpd").CombinedOutput(); err != nil {
		t.Fatalf("building rvpd: %v\n%s", err, out)
	}

	// Three workers; one will die violently.
	type worker struct {
		cmd  *exec.Cmd
		url  string
		logs *bytes.Buffer
	}
	var ws []worker
	var urls []string
	for i := 0; i < 3; i++ {
		state := filepath.Join(tmp, "w", string(rune('a'+i)))
		cmd, url, logs := startWorker(t, bin, state, filepath.Join(tmp, "addr-"+string(rune('a'+i))))
		ws = append(ws, worker{cmd, url, logs})
		urls = append(urls, url)
	}
	defer func() {
		for _, w := range ws {
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
	}()

	coordCfg := func() fleet.Config {
		return fleet.Config{
			StateDir:  filepath.Join(tmp, "coord"),
			Workers:   urls,
			Lease:     2 * time.Second,
			Heartbeat: 200 * time.Millisecond,
			Poll:      20 * time.Millisecond,
			StealAge:  1 * time.Second,
		}
	}
	c, err := fleet.Open(coordCfg())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.Stop()
		}
	}()

	// 9 cells, each a real multi-hundred-millisecond simulation: the
	// sweep is genuinely mid-flight when the violence starts.
	spec := fleet.SweepSpec{
		Workloads:  []string{"go", "li", "perl"},
		Predictors: []string{"none", "rvp", "stride"},
		Insts:      300_000,
	}
	st, err := c.SubmitSweep(spec)
	if err != nil {
		t.Fatalf("SubmitSweep: %v", err)
	}
	id := st.ID

	// Wait until some worker holds a lease, then SIGKILL that worker —
	// the cell it held must be recovered by expiry or steal, never lost.
	var killed string
	deadline := time.Now().Add(60 * time.Second)
	for killed == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no worker ever held a lease")
		}
		got, _ := c.Status(id)
		if got.Terminal() {
			t.Fatalf("sweep finished before the kill could land; grow the budget")
		}
		for _, w := range got.Workers {
			if w.Leased > 0 {
				killed = w.URL
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range ws {
		if w.url == killed {
			if err := w.cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL %s: %v", killed, err)
			}
			w.cmd.Wait()
			t.Logf("killed worker %s while it held a lease", killed)
		}
	}

	// The dead worker's cell must be recovered by the live coordinator —
	// lease expiry or steal, whichever fires first — before we also take
	// the coordinator down. (Restarting earlier would recover the cell
	// through replay instead, which is a different, already-tested path.)
	recovered := func() int64 {
		return c.Registry().Counter("fleet_lease_expiries_total", "").Value() +
			c.Registry().Counter("fleet_steals_total", "").Value()
	}
	for deadline = time.Now().Add(60 * time.Second); recovered() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("dead worker's lease was never expired or stolen")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Counters are per process: read the first coordinator's before it
	// goes.
	expiries := c.Registry().Counter("fleet_lease_expiries_total", "").Value()
	steals := c.Registry().Counter("fleet_steals_total", "").Value()

	// Now kill the coordinator too (Stop + reopen on the same state dir
	// models the crash: the ledger is write-ahead, so everything a real
	// SIGKILL would preserve is exactly what Stop preserves).
	c.Stop()
	stopped = true
	c2, err := fleet.Open(coordCfg())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Stop()

	// The sweep must finish on the surviving two thirds.
	waitDeadline := time.Now().Add(3 * time.Minute)
	var final fleet.SweepStatus
	for {
		var ok bool
		final, ok = c2.Status(id)
		if !ok {
			t.Fatalf("sweep %s lost across coordinator restart", id)
		}
		if final.Terminal() {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("sweep never finished after the chaos: %+v", final)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.State != "done" || final.Failed != 0 {
		t.Fatalf("sweep state = %s with %d failed, want done with none lost: %+v",
			final.State, final.Failed, final)
	}

	// Byte-identical to the single-node reference: same cells, same
	// merge, no fleet fingerprints.
	ref, err := fleet.Reference(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if final.TableText != ref.String() {
		t.Errorf("fleet table is not byte-identical to the single-node reference:\n--- fleet\n%s--- reference\n%s",
			final.TableText, ref.String())
	}

	// The ledger must show every cell committed exactly once.
	leases := c2.Registry().Counter("fleet_leases_total", "").Value()
	c2.Stop()

	l, rp, err := fleet.OpenLedger(fleet.LedgerPath(filepath.Join(tmp, "coord")))
	if err != nil {
		t.Fatalf("replaying ledger: %v", err)
	}
	defer l.Close()
	if rp.DuplicateDone != 0 {
		t.Errorf("ledger shows %d duplicate cell commits, want 0", rp.DuplicateDone)
	}
	if got, want := len(rp.Done[id]), final.Total; got != want {
		t.Errorf("ledger holds %d done cells, want %d", got, want)
	}
	if expiries == 0 && steals == 0 {
		t.Errorf("neither a lease expiry nor a steal fired: the kill was not felt")
	}
	t.Logf("chaos summary: %d expiries and %d steals before the restart, %d leases after it, %d cells",
		expiries, steals, leases, final.Total)
}
