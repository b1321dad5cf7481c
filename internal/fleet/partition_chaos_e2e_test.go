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
	"cmp"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

	// 9 cells of real simulation: enough runway for the violence.
	spec := fleet.SweepSpec{
		Workloads:  []string{"go", "li", "perl"},
		Predictors: []string{"none", "rvp", "stride"},
		Insts:      300_000,
	}

	// Probe: the same sweep through fault-free proxies counts each
	// link's ops, so each schedule spreads its faults over ops the run
	// performs (the vfs crash harness probes the same way).
	probe := startChaosFleet(t, bin, filepath.Join(tmp, "probe"), make([][]netfault.Plan, 3))
	if st, err := probe.c.SubmitSweep(spec); err != nil {
		t.Fatalf("probe SubmitSweep: %v", err)
	} else if final := waitSweep(t, probe.c, st.ID); final.State != "done" {
		t.Fatalf("fault-free probe sweep ended %s: %+v", final.State, final)
	}
	var spans []int64
	for _, w := range probe.ws {
		spans = append(spans, w.inj.Ops())
	}
	probe.stop()
	t.Logf("probe: ops per link %v", spans)

	// Three workers, each reachable only through a fault-injecting proxy.
	kinds := []netfault.Kind{
		netfault.KindReset, netfault.KindLatency, netfault.KindFlip,
		netfault.KindSlowLoris, netfault.KindPartition, netfault.KindPartitionOneWay,
	}
	var schedules [][]netfault.Plan
	for i, span := range spans {
		plans := netfault.Schedule(seed+int64(i), span, 12, kinds, 400*time.Millisecond)
		// One more flip mid-span on every link, so each run sends a
		// corrupted body through the digest checks whatever kinds the
		// seed drew.
		at := span / 2
		for slices.ContainsFunc(plans, func(p netfault.Plan) bool { return p.At == at }) {
			at++
		}
		plans = append(plans, netfault.Plan{At: at, Kind: netfault.KindFlip})
		slices.SortFunc(plans, func(a, b netfault.Plan) int { return cmp.Compare(a.At, b.At) })
		schedules = append(schedules, plans)
	}
	f := startChaosFleet(t, bin, filepath.Join(tmp, "chaos"), schedules)
	defer func() {
		f.stop()
		if t.Failed() {
			t.Logf("reproduction: RVP_CHAOS_SEED=%d", seed)
			for _, w := range f.ws {
				t.Logf("  %s: %s", w.url, netfault.FormatPlans(w.plans))
			}
		}
	}()
	ws, c := f.ws, f.c
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
	final := waitSweep(t, c, id)
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

	// The faults fired: a plan fired once its link counted the op it
	// is scheduled at, and the trace names that op. Every link fired at
	// least one, and at least one flip corrupted an HTTP body, where
	// only the digest checks can catch it.
	var bodyFlips int64
	for _, w := range ws {
		ops, trace := w.inj.Ops(), w.inj.Trace()
		var fired []string
		for _, p := range w.plans {
			if p.At < ops {
				fired = append(fired, fmt.Sprintf("%s@%s", p.Kind, trace[p.At]))
			}
		}
		bodyFlips += w.inj.BodyFlips()
		t.Logf("link %s: %d ops, fired %d/%d %v, %d body flips", w.url, ops, len(fired), len(w.plans), fired, w.inj.BodyFlips())
		if len(fired) == 0 {
			t.Errorf("link %s fired none of its %d faults in %d ops", w.url, len(w.plans), ops)
		}
	}
	if bodyFlips == 0 {
		t.Errorf("no flip landed in an HTTP body")
	}
}

// chaosWorker is one rvpd worker behind its fault-injecting proxy.
type chaosWorker struct {
	cmd   *exec.Cmd
	url   string // direct URL
	proxy *netfault.Proxy
	inj   *netfault.Injector
	plans []netfault.Plan
}

// chaosFleet is three chaosWorkers and a coordinator dispatching to
// their proxies.
type chaosFleet struct {
	ws []*chaosWorker
	c  *fleet.Coordinator
}

// startChaosFleet starts one worker per schedule under dir, each behind
// a proxy running its schedule, and a coordinator over the proxies.
func startChaosFleet(t *testing.T, bin, dir string, schedules [][]netfault.Plan) *chaosFleet {
	t.Helper()
	f := &chaosFleet{}
	var proxyURLs []string
	for i, plans := range schedules {
		name := string(rune('a' + i))
		cmd, url, _ := startWorker(t, bin,
			filepath.Join(dir, "w", name), filepath.Join(dir, "addr-"+name),
			"-body-read-timeout", "2s")
		inj := netfault.NewInjector()
		inj.Apply(plans...)
		p, err := netfault.NewProxy(url, inj)
		if err != nil {
			t.Fatalf("proxy for %s: %v", url, err)
		}
		f.ws = append(f.ws, &chaosWorker{cmd: cmd, url: url, proxy: p, inj: inj, plans: plans})
		proxyURLs = append(proxyURLs, p.URL())
		t.Logf("worker %s via %s, schedule %s", url, p.URL(), netfault.FormatPlans(plans))
	}
	c, err := fleet.Open(fleet.Config{
		StateDir:  filepath.Join(dir, "coord"),
		Workers:   proxyURLs,
		Lease:     2 * time.Second,
		Heartbeat: 200 * time.Millisecond,
		Poll:      20 * time.Millisecond,
		StealAge:  1 * time.Second,
	})
	if err != nil {
		f.stop()
		t.Fatalf("Open: %v", err)
	}
	f.c = c
	return f
}

// stop stops the coordinator, then the proxies and workers.
func (f *chaosFleet) stop() {
	if f.c != nil {
		f.c.Stop()
	}
	for _, w := range f.ws {
		w.proxy.Close()
		w.cmd.Process.Kill()
		w.cmd.Wait()
	}
}

// waitSweep polls the sweep until it is terminal (4 minutes at most).
func waitSweep(t *testing.T, c *fleet.Coordinator, id string) fleet.SweepStatus {
	t.Helper()
	deadline := time.Now().Add(4 * time.Minute)
	for {
		st, ok := c.Status(id)
		if !ok {
			t.Fatalf("sweep %s lost", id)
		}
		if st.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never finished under the fault schedules: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
