package rvpsim_test

// Steady-state allocation guard for the simulator hot loop. A Run has
// unavoidable per-run setup cost (bandwidth books, dense predictor
// state, the memory page table), so absolute allocs/op is nonzero; what
// must stay at zero is the marginal cost of simulating MORE
// instructions. The guard therefore measures the delta between a long
// and a short run: (allocs(300k) - allocs(100k)) / 200k extra
// instructions must be ~0. Any per-commit allocation sneaking back into
// the pipeline loop (pendingPred churn, trace records, map growth)
// shows up here as thousands of allocations and fails loudly.

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"rvpsim"
	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

const (
	allocGuardShort = 100_000
	allocGuardLong  = 300_000
)

func allocsForRun(t *testing.T, insts uint64) float64 {
	t.Helper()
	prog, err := rvpsim.Workload("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	return testing.AllocsPerRun(3, func() {
		if _, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: insts}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestZeroAllocsPerCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("simulates 1.2M instructions; skipped with -short")
	}
	short := allocsForRun(t, allocGuardShort)
	long := allocsForRun(t, allocGuardLong)
	perCommit := (long - short) / float64(allocGuardLong-allocGuardShort)
	t.Logf("allocs: short(%d)=%.0f long(%d)=%.0f -> %.6f allocs/commit",
		allocGuardShort, short, allocGuardLong, long, perCommit)
	// Tolerance admits measurement noise (GC-triggered runtime allocs),
	// not real per-commit allocation: one alloc per commit would read 1.0.
	if perCommit > 0.001 {
		t.Fatalf("steady-state allocation regression: %.6f allocs/commit (want ~0)", perCommit)
	}
}

// TestZeroAllocsPerCommitParallel is the same marginal-cost guard on the
// machine-saturation path: several goroutines each drive a private,
// reused simulator (the recycled-runState arena sweeps rely on), so any
// per-commit allocation OR cross-worker allocator contention structure
// (a shared pool, a global free list) that sneaks into the loop shows up
// as a nonzero delta. Workers each run to completion inside one
// AllocsPerRun body; the counter is process-wide, so the delta is
// normalized by total extra instructions across all workers.
func TestZeroAllocsPerCommitParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	if testing.Short() {
		t.Skip("simulates 4.8M instructions; skipped with -short")
	}
	const workers = 4
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	sims := make([]*pipeline.Sim, workers)
	preds := make([]*core.DynamicRVP, workers)
	for i := range sims {
		sims[i] = pipeline.MustNew(cfg)
		preds[i] = core.MustDynamicRVP(core.DefaultCounterConfig())
		// One warmup run so every worker's runState arena exists before
		// measurement — steady state, as in a sweep's second cell onward.
		if _, err := sims[i].Run(prog, preds[i], allocGuardShort); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(insts uint64) float64 {
		return testing.AllocsPerRun(3, func() {
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if _, err := sims[i].Run(prog, preds[i], insts); err != nil {
						t.Error(err)
					}
				}(i)
			}
			wg.Wait()
		})
	}
	short := measure(allocGuardShort)
	long := measure(allocGuardLong)
	perCommit := (long - short) / float64(workers*(allocGuardLong-allocGuardShort))
	t.Logf("parallel allocs: short=%.0f long=%.0f -> %.6f allocs/commit (%d workers)",
		short, long, perCommit, workers)
	if perCommit > 0.001 {
		t.Fatalf("parallel steady-state allocation regression: %.6f allocs/commit (want ~0)", perCommit)
	}
}

// runFootprintLimit bounds the heap one fresh simulator allocates to
// run 100k instructions: its bandwidth books, queues, decode table,
// memory hierarchy, branch predictor and the emulator's memory image.
const runFootprintLimit = 1 << 20

// TestRunFootprint guards the fixed cost of a run job, which builds a
// fresh simulator per job: the bytes allocated by pipeline.New plus one
// 100k-instruction Run of li under rvp must stay at or under 1 MB.
func TestRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; guard is meaningless under -race")
	}
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	pred := core.MustDynamicRVP(core.DefaultCounterConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	if _, err := sim.Run(prog, pred, allocGuardShort); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("fresh simulator + %d-instruction run allocated %d bytes", allocGuardShort, bytes)
	if bytes > runFootprintLimit {
		t.Fatalf("run footprint %d bytes exceeds %d", bytes, runFootprintLimit)
	}
}
