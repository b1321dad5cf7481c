// Fleet partition chaos e2e: the hostile-network companion to the
// SIGKILL chaos test. Three real rvpd workers sit behind netfault
// proxies running seeded fault schedules — resets, latency spikes,
// bit flips, slow-loris trickles, full and one-way partitions — while
// an in-process coordinator runs a sweep across them and one worker is
// SIGKILLed mid-lease. The sweep must still converge to a result table
// byte-identical to the single-node reference, with every merged cell
// digest-verified.
//
// The fault schedules derive from one seed (RVP_CHAOS_SEED overrides
// it); a failure prints the seed and every per-link plan, which is the
// complete reproduction recipe.
package fleet_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"rvpsim/internal/fleet"
	"rvpsim/internal/netfault"
	"rvpsim/internal/testutil/leak"
)

func TestFleetPartitionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet partition chaos e2e skipped in -short mode")
	}
	leak.Check(t)

	seed := int64(20260809)
	if env := os.Getenv("RVP_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("RVP_CHAOS_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("fault schedule seed: %d (rerun with RVP_CHAOS_SEED=%d)", seed, seed)

	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rvpd")
	if out, err := exec.Command("go", "build", "-o", bin, "rvpsim/cmd/rvpd").CombinedOutput(); err != nil {
		t.Fatalf("building rvpd: %v\n%s", err, out)
	}

	// Three workers, each reachable only through a fault-injecting proxy.
	kinds := []netfault.Kind{
		netfault.KindReset, netfault.KindLatency, netfault.KindFlip,
		netfault.KindSlowLoris, netfault.KindPartition, netfault.KindPartitionOneWay,
	}
	type worker struct {
		cmd   *exec.Cmd
		url   string // direct URL
		proxy *netfault.Proxy
		plans []netfault.Plan
		logs  *bytes.Buffer
	}
	var ws []*worker
	var proxyURLs []string
	for i := 0; i < 3; i++ {
		name := string(rune('a' + i))
		cmd, url, logs := startWorker(t, bin,
			filepath.Join(tmp, "w", name), filepath.Join(tmp, "addr-"+name),
			"-body-read-timeout", "2s")
		plans := netfault.Schedule(seed+int64(i), 500, 12, kinds, 400*time.Millisecond)
		inj := netfault.NewInjector()
		inj.Apply(plans...)
		p, err := netfault.NewProxy(url, inj)
		if err != nil {
			t.Fatalf("proxy for %s: %v", url, err)
		}
		ws = append(ws, &worker{cmd: cmd, url: url, proxy: p, plans: plans, logs: logs})
		proxyURLs = append(proxyURLs, p.URL())
		t.Logf("worker %s via %s, schedule %s", url, p.URL(), netfault.FormatPlans(plans))
	}
	defer func() {
		for _, w := range ws {
			w.proxy.Close()
			w.cmd.Process.Kill()
			w.cmd.Wait()
		}
		if t.Failed() {
			t.Logf("reproduction: RVP_CHAOS_SEED=%d", seed)
			for _, w := range ws {
				t.Logf("  %s: %s", w.url, netfault.FormatPlans(w.plans))
			}
		}
	}()

	c, err := fleet.Open(fleet.Config{
		StateDir:  filepath.Join(tmp, "coord"),
		Workers:   proxyURLs,
		Lease:     2 * time.Second,
		Heartbeat: 200 * time.Millisecond,
		Poll:      20 * time.Millisecond,
		StealAge:  1 * time.Second,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer c.Stop()

	// 9 cells of real simulation: enough runway for the violence.
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

	// SIGKILL the first worker that holds a lease.
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
				killed = w.URL // proxy URL
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, w := range ws {
		if w.proxy.URL() == killed {
			if err := w.cmd.Process.Kill(); err != nil {
				t.Fatalf("SIGKILL %s: %v", w.url, err)
			}
			w.cmd.Wait()
			t.Logf("killed worker %s (proxy %s) while it held a lease", w.url, killed)
		}
	}

	// The sweep still converges on the surviving workers, through the
	// still-faulting proxies.
	waitDeadline := time.Now().Add(4 * time.Minute)
	var final fleet.SweepStatus
	for {
		var ok bool
		final, ok = c.Status(id)
		if !ok {
			t.Fatalf("sweep %s lost", id)
		}
		if final.Terminal() {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("sweep never finished under the fault schedules: %+v", final)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if final.State != "done" || final.Failed != 0 {
		t.Fatalf("sweep state = %s with %d failed, want done with none lost: %+v",
			final.State, final.Failed, final)
	}

	// Byte-identical to the single-node reference: resets, flips and
	// partitions changed nothing about the science.
	ref, err := fleet.Reference(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if final.TableText != ref.String() {
		t.Errorf("fleet table is not byte-identical to the reference:\n--- fleet\n%s--- reference\n%s",
			final.TableText, ref.String())
	}

	// Every merge was digest-verified, and nothing corrupt slipped in.
	verified := c.Registry().Counter("fleet_digest_verified_total", "").Value()
	rejects := c.Registry().Counter("fleet_digest_rejects_total", "").Value()
	specRejects := c.Registry().Counter("fleet_spec_rejects_total", "").Value()
	if verified < int64(final.Total) {
		t.Errorf("fleet_digest_verified_total = %d, want >= %d (one per merged cell)", verified, final.Total)
	}
	t.Logf("chaos summary: %d cells, %d digest-verified, %d digest rejects, %d spec rejects, %d dispatch errors",
		final.Total, verified, rejects, specRejects,
		c.Registry().Counter("fleet_dispatch_errors_total", "").Value())
}
