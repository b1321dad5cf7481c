package faultinject_test

import (
	"errors"
	"strings"
	"testing"

	"rvpsim/internal/asm"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/progtest"
	"rvpsim/internal/simerr"
)

const budget = 20_000

// cleanStream executes p architecturally (no timing, no faults) and
// returns the committed static-instruction index stream, truncated to
// max instructions.
func cleanStream(t *testing.T, p *program.Program, max uint64) []int {
	t.Helper()
	st := emu.MustNew(p)
	var out []int
	for uint64(len(out)) < max {
		e, ok := st.Step()
		if !ok {
			if st.Err() != nil {
				t.Fatalf("clean run failed: %v", st.Err())
			}
			break
		}
		out = append(out, e.Index)
	}
	return out
}

// TestFaultInvariants is the core invariant suite: under injected memory
// latency faults and confidence flips, all three recovery schemes must
// (a) commit exactly the clean architectural instruction stream — a
// fault may change *when* things happen, never *what* commits — and (b)
// keep the prediction accounting and commit-order invariants intact.
// Termination is guaranteed by the instruction budget plus the watchdog.
func TestFaultInvariants(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	faults := []faultinject.Config{
		{MemEvery: 3, MemExtra: 97},
		{FlipEvery: 2, Seed: 1},
		{MemEvery: 5, MemExtra: 401, FlipEvery: 3, Seed: 7},
	}
	recoveries := []pipeline.Recovery{
		pipeline.RecoverRefetch, pipeline.RecoverReissue, pipeline.RecoverSelective,
	}
	for seed := 1; seed <= seeds; seed++ {
		p := progtest.Random(uint64(seed))
		want := cleanStream(t, p, budget)
		for _, fc := range faults {
			for _, rec := range recoveries {
				cfg := pipeline.BaselineConfig()
				cfg.Recovery = rec
				cfg.WatchdogCycles = 1_000_000 // termination backstop, never trips
				sim := pipeline.MustNew(cfg)
				sim.SetFaults(faultinject.New(fc))

				var got []int
				var lastCommit int64
				ordered := true
				sim.SetTracer(func(tr pipeline.TraceRecord) {
					got = append(got, tr.Index)
					if tr.CommitAt < lastCommit {
						ordered = false
					}
					lastCommit = tr.CommitAt
				})
				st, err := sim.Run(p, core.MustDynamicRVP(core.DefaultCounterConfig()), budget)
				if err != nil {
					t.Fatalf("seed %d %v %+v: run failed: %v", seed, rec, fc, err)
				}
				if !ordered {
					t.Errorf("seed %d %v %+v: commit order regressed", seed, rec, fc)
				}
				if uint64(len(got)) != st.Committed {
					t.Errorf("seed %d %v: traced %d != committed %d", seed, rec, len(got), st.Committed)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d %v %+v: committed %d instructions, clean run commits %d",
						seed, rec, fc, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d %v %+v: commit %d is instruction %d, clean run commits %d — a fault changed architecture",
							seed, rec, fc, i, got[i], want[i])
					}
				}
				if st.PredictCorrect+st.PredictWrong != st.Predicted {
					t.Errorf("seed %d %v: correct+wrong != predicted", seed, rec)
				}
				if st.Predicted > st.Eligible {
					t.Errorf("seed %d %v: predicted %d > eligible %d", seed, rec, st.Predicted, st.Eligible)
				}
				if st.Cycles <= 0 {
					t.Errorf("seed %d %v: nonpositive cycle count %d", seed, rec, st.Cycles)
				}
			}
		}
	}
}

const loadLoopSrc = `
.text
.proc main
main:
        lda r2, table
        li r3, 2000
loop:
        ldq r4, 0(r2)
        add r5, r5, r4
        subi r3, r3, 1
        bne r3, loop
        halt
.endproc
.data
.org 0x100000
table: .quad 7
`

// TestFaultWatchdogTrip forces a memory-latency fault large enough to
// stall commit past the watchdog and checks the run aborts with a
// structured ErrNoProgress instead of absorbing the stall silently.
func TestFaultWatchdogTrip(t *testing.T) {
	p := asm.MustAssemble("loadloop", loadLoopSrc, asm.Options{})
	cfg := pipeline.BaselineConfig()
	cfg.WatchdogCycles = 500
	sim := pipeline.MustNew(cfg)
	sim.SetFaults(faultinject.New(faultinject.Config{MemEvery: 50, MemExtra: 100_000}))
	st, err := sim.Run(p, core.NoPredictor{}, 0)
	if !errors.Is(err, simerr.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress, got %v", err)
	}
	var se *simerr.SimError
	if !errors.As(err, &se) || se.Stage != "pipeline" || !se.HasCycle {
		t.Fatalf("watchdog error lacks coordinates: %v", err)
	}
	if st.Committed == 0 {
		t.Error("watchdog abort returned no partial progress")
	}
}

// TestFaultInjectedFailure checks a sticky commit-batch failure surfaces
// as a non-transient error wrapping ErrInjected with partial stats, and
// stays failed on a retry (the same injector keeps counting).
func TestFaultInjectedFailure(t *testing.T) {
	p := asm.MustAssemble("loadloop", loadLoopSrc, asm.Options{})
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	inj := faultinject.New(faultinject.Config{FailAfter: 2})
	sim.SetFaults(inj)
	for attempt := 1; attempt <= 2; attempt++ {
		_, err := sim.Run(p, core.NoPredictor{}, 0)
		if !errors.Is(err, simerr.ErrInjected) {
			t.Fatalf("attempt %d: want ErrInjected, got %v", attempt, err)
		}
		if simerr.IsTransient(err) {
			t.Fatalf("attempt %d: sticky failure marked transient", attempt)
		}
	}
}

// TestFaultTransient checks a transient commit-batch failure is marked
// transient and clears on retry with the same injector.
func TestFaultTransient(t *testing.T) {
	p := asm.MustAssemble("loadloop", loadLoopSrc, asm.Options{})
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	sim.SetFaults(faultinject.New(faultinject.Config{Transient: 1}))
	_, err := sim.Run(p, core.NoPredictor{}, 0)
	if !errors.Is(err, simerr.ErrInjected) || !simerr.IsTransient(err) {
		t.Fatalf("want transient ErrInjected, got %v", err)
	}
	if _, err := sim.Run(p, core.NoPredictor{}, 0); err != nil {
		t.Fatalf("retry after transient fault failed: %v", err)
	}
}

// TestFaultPanicPropagates checks an injected commit-batch panic escapes
// Run (the experiment runner, not the pipeline, owns recovery) and is
// sticky across a retry.
func TestFaultPanicPropagates(t *testing.T) {
	p := asm.MustAssemble("loadloop", loadLoopSrc, asm.Options{})
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	sim.SetFaults(faultinject.New(faultinject.Config{PanicAfter: 1}))
	for attempt := 1; attempt <= 2; attempt++ {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("attempt %d: injected panic did not propagate", attempt)
				}
				if !strings.Contains(r.(string), "injected panic") {
					t.Fatalf("attempt %d: unexpected panic %v", attempt, r)
				}
			}()
			_, _ = sim.Run(p, core.NoPredictor{}, 0)
		}()
	}
}

// TestFaultTruncate checks truncated programs fail fast with structured
// errors (or run to completion when the truncation kept the program
// intact) and never hang.
func TestFaultTruncate(t *testing.T) {
	p := asm.MustAssemble("loadloop", loadLoopSrc, asm.Options{})
	cfg := pipeline.BaselineConfig()
	cfg.WatchdogCycles = 1_000_000

	// Empty program: rejected up front as a config error.
	empty := faultinject.Truncate(p, 0)
	sim := pipeline.MustNew(cfg)
	if _, err := sim.Run(empty, core.NoPredictor{}, budget); !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("empty program: want ErrConfig, got %v", err)
	}

	// Mid-truncation (HALT cut off): the run must terminate with an
	// error or hit the instruction budget — never hang.
	for _, n := range []int{1, 3, 5} {
		tr := faultinject.Truncate(p, n)
		sim := pipeline.MustNew(cfg)
		st, err := sim.Run(tr, core.NoPredictor{}, budget)
		if err == nil && st.Committed < budget {
			t.Errorf("truncate %d: run ended cleanly after %d insts with no HALT and no error", n, st.Committed)
		}
	}

	// Full-length truncation is the identity.
	whole := faultinject.Truncate(p, len(p.Insts))
	simA := pipeline.MustNew(cfg)
	a, err := simA.Run(whole, core.NoPredictor{}, budget)
	if err != nil {
		t.Fatalf("identity truncation failed: %v", err)
	}
	simB := pipeline.MustNew(cfg)
	b, err := simB.Run(p, core.NoPredictor{}, budget)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Committed != b.Committed {
		t.Errorf("identity truncation changed timing: %d/%d cycles, %d/%d committed",
			a.Cycles, b.Cycles, a.Committed, b.Committed)
	}
}
