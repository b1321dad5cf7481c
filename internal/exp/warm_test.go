package exp

// Tests for the sweep-level warmup sharing: one functional warmup per
// program, restored into every cell, with results identical to warming
// up and running the pipeline by hand — plus the machine-saturation
// guard that a parallel sweep's run loop never serializes on a shared
// lock in the simulator packages.

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// TestWarmupSharedAcrossCells: a sweep of three predictors over one
// workload pays exactly one warmup, restores it three times, and each
// cell reports the stats of a private warmup and run.
func TestWarmupSharedAcrossCells(t *testing.T) {
	const (
		warmN  = 30_000
		budget = 50_000
	)
	reg := obs.NewRegistry()
	r := NewRunner(Options{
		Insts:       budget,
		WarmupInsts: warmN,
		Registry:    reg,
	})
	cfg := pipeline.BaselineConfig()
	preds := []core.Predictor{
		core.NoPredictor{},
		core.MustDynamicRVP(core.DefaultCounterConfig()),
		core.MustLVP(core.DefaultLVPConfig(), "lvp"),
	}

	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}

	for _, pred := range preds {
		got, err := r.run("li", cfg, pred)
		if err != nil {
			t.Fatalf("%s: %v", pred.Name(), err)
		}
		// Reference: the same cell driven through the pipeline directly,
		// after a private warmup.
		var ref core.Predictor
		switch pred.Name() {
		case core.NoPredictor{}.Name():
			ref = core.NoPredictor{}
		case "lvp":
			ref = core.MustLVP(core.DefaultLVPConfig(), "lvp")
		default:
			ref = core.MustDynamicRVP(core.DefaultCounterConfig())
		}
		want, err := warmedRun(t, prog, cfg, ref, warmN, budget)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: sweep cell stats diverge from a private warmup and run:\n got %+v\nwant %+v",
				pred.Name(), got, want)
		}
		if got.Committed != budget {
			t.Fatalf("%s: measured phase committed %d, want %d", pred.Name(), got.Committed, budget)
		}
	}

	if v := reg.Counter("exp_warmup_runs", "").Value(); v != 1 {
		t.Fatalf("exp_warmup_runs = %d, want 1 (one warmup per workload)", v)
	}
	if v := reg.Counter("exp_warmup_forks", "").Value(); v != int64(len(preds)) {
		t.Fatalf("exp_warmup_forks = %d, want %d (one restore per cell)", v, len(preds))
	}
}

// TestWarmupDisabledByDefault: WarmupInsts zero keeps the historical
// cold-start methodology — no warmups, no restores, identical stats to a
// cold pipeline run.
func TestWarmupDisabledByDefault(t *testing.T) {
	const budget = 50_000
	reg := obs.NewRegistry()
	r := NewRunner(Options{Insts: budget, Registry: reg})
	cfg := pipeline.BaselineConfig()
	got, err := r.run("li", cfg, core.MustDynamicRVP(core.DefaultCounterConfig()))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	want, err := pipeline.MustNew(cfg).Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cold sweep cell diverges from direct run:\n got %+v\nwant %+v", got, want)
	}
	if v := reg.Counter("exp_warmup_runs", "").Value(); v != 0 {
		t.Fatalf("exp_warmup_runs = %d, want 0 with warmup disabled", v)
	}
	if v := reg.Counter("exp_warmup_forks", "").Value(); v != 0 {
		t.Fatalf("exp_warmup_forks = %d, want 0 with warmup disabled", v)
	}
}

// BenchmarkWarmupSharing quantifies the shared-warmup win on a
// multi-config single-workload sweep: six cells (three predictors under
// two machine configs), each needing the same 1.5M-instruction warmup
// before a 200k measured phase. "shared" pays the warmup once through
// the Runner and restores its snapshot into every cell; "percell" is
// the methodology it replaces, where every cell fast-forwards privately.
// The gap is the wall time the sweep no longer spends re-executing
// identical prefixes.
func BenchmarkWarmupSharing(b *testing.B) {
	const (
		warmN  = 1_500_000
		budget = 200_000
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	cfgs := []pipeline.Config{pipeline.BaselineConfig(), pipeline.AggressiveConfig()}
	mkPreds := func() []core.Predictor {
		return []core.Predictor{
			core.NoPredictor{},
			core.MustDynamicRVP(core.DefaultCounterConfig()),
			core.MustLVP(core.DefaultLVPConfig(), "lvp"),
		}
	}

	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewRunner(Options{Insts: budget, WarmupInsts: warmN})
			for _, cfg := range cfgs {
				for _, pred := range mkPreds() {
					if _, err := r.run("li", cfg, pred); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("percell", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				for _, pred := range mkPreds() {
					if _, err := warmedRun(b, prog, cfg, pred, warmN, budget); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}

// TestParallelSweepContentionFree is the lock audit for the saturation
// path: with mutex profiling at full fidelity, a parallel sweep (several
// workers, shared registry, shared warm snapshots) must produce zero
// contention events inside the simulator's hot packages — pipeline, mem,
// core, emu, bpred. Coordination locks (the runner's own memoization)
// are allowed; the run loop itself must never serialize workers. The
// mutex profile is cumulative for the process, so the audit counts only
// the contention this sweep added on top of what earlier tests (or
// earlier -count iterations) left behind.
func TestParallelSweepContentionFree(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~1M instructions; skipped with -short")
	}
	prev := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(prev)
	before := mutexContention(t)

	reg := obs.NewRegistry()
	r := NewRunner(Options{
		Insts:       150_000,
		WarmupInsts: 20_000,
		Parallel:    true,
		MaxWorkers:  4,
		Registry:    reg,
	})
	// Two predictors per workload so workers overlap on the same warm
	// snapshot and the same per-config simulator pool.
	fails, err := r.forEach(workloads.Names(), func(name string) error {
		if _, err := r.run(name, pipeline.BaselineConfig(), core.MustDynamicRVP(core.DefaultCounterConfig())); err != nil {
			return err
		}
		_, err := r.run(name, pipeline.BaselineConfig(), core.MustLVP(core.DefaultLVPConfig(), "lvp"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ferr := range fails {
		t.Fatalf("%s: %v", name, ferr)
	}

	var offending []string
	for stack, c := range mutexContention(t) {
		if c.count <= before[stack].count {
			continue
		}
		for _, pkg := range []string{
			"rvpsim/internal/pipeline.",
			"rvpsim/internal/mem.",
			"rvpsim/internal/core.",
			"rvpsim/internal/emu.",
			"rvpsim/internal/bpred.",
		} {
			if strings.Contains(c.block, pkg) {
				offending = append(offending, fmt.Sprintf("%s:\n%s", pkg, c.block))
			}
		}
	}
	if len(offending) > 0 {
		t.Fatalf("parallel sweep contends on locks in simulator hot packages:\n%s",
			strings.Join(offending, "\n---\n"))
	}
}

// contention is one mutex-profile entry: its contention event count and
// its text block (the counts line and the symbolized stack).
type contention struct {
	count int64
	block string
}

// mutexContention reads the process's mutex profile, keyed by stack.
func mutexContention(t *testing.T) map[string]contention {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatal(err)
	}
	out := map[string]contention{}
	for _, block := range strings.Split(buf.String(), "\n\n") {
		// An entry starts "<cycles> <count> @ <pc> <pc> ...".
		head, _, _ := strings.Cut(block, "\n")
		counts, stack, ok := strings.Cut(head, " @ ")
		if !ok {
			continue
		}
		var cycles, count int64
		if _, err := fmt.Sscan(counts, &cycles, &count); err != nil {
			t.Fatalf("mutex profile entry %q: %v", head, err)
		}
		out[stack] = contention{count: count, block: block}
	}
	return out
}

// TestFigure7ReallocWarmedOnItself: under a warmup, Figure 7's
// re-allocated cell starts from the re-allocated program's own warm
// state, even after the original program of the same name has warmed
// up in the same Runner. The re-allocated program keeps its original's
// name and instruction count, so only its content tells them apart.
func TestFigure7ReallocWarmedOnItself(t *testing.T) {
	const (
		warmN  = 100_000
		budget = 50_000
	)
	r := NewRunner(Options{Insts: budget, WarmupInsts: warmN})
	cfg := pipeline.BaselineConfig()
	mk := func() core.Predictor {
		return core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithName("drvp_realloc"))
	}
	for _, name := range Figure7Workloads {
		if _, err := r.run(name, cfg, core.NoPredictor{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rp, err := r.reallocated(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := r.runOn(rp, cfg, mk())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := warmedRun(t, rp, cfg, mk(), warmN, budget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: re-allocated cell predicted %d, self-warmed run %d:\n got %+v\nwant %+v",
				name, got.Predicted, want.Predicted, got, want)
		}
	}
}

// warmedRun fast-forwards prog warmN (> 0) instructions on the emulator
// and runs the timed phase for budget instructions on a fresh simulator
// from there.
func warmedRun(tb testing.TB, prog *program.Program, cfg pipeline.Config, pred core.Predictor, warmN, budget uint64) (pipeline.Stats, error) {
	st, err := emu.New(prog)
	if err != nil {
		return pipeline.Stats{}, err
	}
	if st.Run(warmN); st.Err() != nil {
		return pipeline.Stats{}, st.Err()
	}
	return pipeline.MustNew(cfg).RunFromContext(tb.Context(), st, pred, budget)
}
