package pipeline_test

// Tests for warm starts (RunFromContext from a restored emulator
// snapshot) and recycled-runState determinism (sim.go
// newRunState/resetRunState). The contract under test: a run started
// from a warm snapshot commits the byte-identical architectural
// instruction/value stream as the tail of a cold run past the same
// boundary, any number of concurrent restores agree, and a Sim reused
// across runs is indistinguishable from a fresh one.

import (
	"sync"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// archRec is the architectural slice of one committed instruction —
// timing fields are deliberately excluded (a warmed run starts with cold
// caches where the cold run's tail had warm ones; architecture, not
// timing, is what a warm start preserves).
type archRec struct {
	Index int
	PC    uint64
	Wrote bool
	Rd    isa.Reg
	Value uint64
}

func archTracer(out *[]archRec) pipeline.Tracer {
	return func(tr pipeline.TraceRecord) {
		*out = append(*out, archRec{Index: tr.Index, PC: tr.PC, Wrote: tr.WroteRd, Rd: tr.Rd, Value: tr.Value})
	}
}

func diffStreams(t *testing.T, label string, want, got []archRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: committed %d instructions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: commit %d diverges: got %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestWarmupForkEquivalence is the warm-start determinism guarantee:
// for each predictor, a run started from a restore of a shared warm
// snapshot commits exactly the stream a cold run commits after the same
// number of instructions.
func TestWarmupForkEquivalence(t *testing.T) {
	const (
		warmN    = 40_000
		measureN = 60_000
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	warm := warmSnapshot(t, prog, warmN)

	preds := map[string]func() core.Predictor{
		"none": func() core.Predictor { return core.NoPredictor{} },
		"drvp": func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) },
		"lvp":  func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp") },
	}
	for name, mk := range preds {
		t.Run(name, func(t *testing.T) {
			// Cold reference: run through warmup + measured phase in one
			// go, keep only the tail of the stream.
			var cold []archRec
			coldSim := pipeline.MustNew(cfg)
			coldSim.SetTracer(archTracer(&cold))
			coldStats, err := coldSim.Run(prog, mk(), warmN+measureN)
			if err != nil {
				t.Fatal(err)
			}
			if coldStats.Committed != warmN+measureN {
				t.Fatalf("cold run committed %d, want %d", coldStats.Committed, warmN+measureN)
			}

			var warmed []archRec
			warmSim := pipeline.MustNew(cfg)
			warmSim.SetTracer(archTracer(&warmed))
			warmStats, err := runWarm(t, warmSim, prog, warm, mk(), measureN)
			if err != nil {
				t.Fatal(err)
			}
			if warmStats.Committed != measureN {
				t.Fatalf("warmed run committed %d, want %d (measured phase only)", warmStats.Committed, measureN)
			}
			diffStreams(t, "warmed vs cold tail", cold[warmN:], warmed)
		})
	}
}

// TestWarmupConcurrentForks restores one warm snapshot on several
// goroutines at once (run under -race in CI): every restored run must
// commit the identical stream, and none may corrupt the shared snapshot
// for the others.
func TestWarmupConcurrentForks(t *testing.T) {
	const (
		warmN    = 20_000
		measureN = 30_000
		forks    = 4
	)
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	warm := warmSnapshot(t, prog, warmN)

	streams := make([][]archRec, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := emu.Restore(prog, warm)
			if err != nil {
				t.Error(err)
				return
			}
			sim := pipeline.MustNew(cfg)
			sim.SetTracer(archTracer(&streams[i]))
			if _, err := sim.RunFromContext(t.Context(), st, core.MustDynamicRVP(core.DefaultCounterConfig()), measureN); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < forks; i++ {
		diffStreams(t, "restore disagreement", streams[0], streams[i])
	}
}

// TestWarmupZeroIsColdRun: a run from a snapshot taken at instruction 0
// must be a cold run in every observable respect.
func TestWarmupZeroIsColdRun(t *testing.T) {
	const budget = 50_000
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()

	var cold []archRec
	coldSim := pipeline.MustNew(cfg)
	coldSim.SetTracer(archTracer(&cold))
	coldStats, err := coldSim.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}

	var warmed []archRec
	warmSim := pipeline.MustNew(cfg)
	warmSim.SetTracer(archTracer(&warmed))
	warmStats, err := runWarm(t, warmSim, prog, warmSnapshot(t, prog, 0), core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
	if err != nil {
		t.Fatal(err)
	}
	if warmStats != coldStats {
		t.Fatalf("zero-warmup stats diverge from cold run:\n got %+v\nwant %+v", warmStats, coldStats)
	}
	diffStreams(t, "zero-warmup vs cold", cold, warmed)
}

// TestSimReuseDeterminism proves the recycled-runState path: one Sim
// driven through a sweep-shaped sequence of runs (different predictors,
// different programs, a warmed run in the middle) commits, on every run,
// the identical stream a fresh Sim commits for the same cell.
func TestSimReuseDeterminism(t *testing.T) {
	const budget = 30_000
	li, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	goProg, err := workloads.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	warm := warmSnapshot(t, li, 10_000)

	cells := []struct {
		name string
		run  func(sim *pipeline.Sim, tr pipeline.Tracer) (pipeline.Stats, error)
	}{
		{"li/drvp", func(sim *pipeline.Sim, tr pipeline.Tracer) (pipeline.Stats, error) {
			sim.SetTracer(tr)
			return sim.Run(li, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
		}},
		{"go/none", func(sim *pipeline.Sim, tr pipeline.Tracer) (pipeline.Stats, error) {
			sim.SetTracer(tr)
			return sim.Run(goProg, core.NoPredictor{}, budget)
		}},
		{"li/lvp+warm", func(sim *pipeline.Sim, tr pipeline.Tracer) (pipeline.Stats, error) {
			sim.SetTracer(tr)
			return runWarm(t, sim, li, warm, core.MustLVP(core.DefaultLVPConfig(), "lvp"), budget)
		}},
		{"li/drvp-again", func(sim *pipeline.Sim, tr pipeline.Tracer) (pipeline.Stats, error) {
			sim.SetTracer(tr)
			return sim.Run(li, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
		}},
	}

	reused := pipeline.MustNew(pipeline.BaselineConfig())
	for _, c := range cells {
		var fresh, recycled []archRec
		fs := pipeline.MustNew(pipeline.BaselineConfig())
		wantStats, err := c.run(fs, archTracer(&fresh))
		if err != nil {
			t.Fatalf("%s: fresh: %v", c.name, err)
		}
		gotStats, err := c.run(reused, archTracer(&recycled))
		if err != nil {
			t.Fatalf("%s: reused: %v", c.name, err)
		}
		if gotStats != wantStats {
			t.Fatalf("%s: reused stats diverge:\n got %+v\nwant %+v", c.name, gotStats, wantStats)
		}
		diffStreams(t, c.name, fresh, recycled)
	}
}

// warmSnapshot fast-forwards prog warmN instructions on the emulator and
// snapshots the architectural state there (warmN 0: the initial state).
func warmSnapshot(t testing.TB, prog *program.Program, warmN uint64) emu.Snapshot {
	t.Helper()
	st, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	if warmN > 0 {
		st.Run(warmN)
	}
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if st.Count != warmN {
		t.Fatalf("warmup executed %d insts, want %d", st.Count, warmN)
	}
	return st.Snapshot()
}

// runWarm runs pred on sim for budget instructions from a fresh restore
// of snap.
func runWarm(t testing.TB, sim *pipeline.Sim, prog *program.Program, snap emu.Snapshot, pred core.Predictor, budget uint64) (pipeline.Stats, error) {
	t.Helper()
	st, err := emu.Restore(prog, snap)
	if err != nil {
		t.Fatal(err)
	}
	return sim.RunFromContext(t.Context(), st, pred, budget)
}
