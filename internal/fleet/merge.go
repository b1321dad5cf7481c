package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"rvpsim/internal/exp"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/stats"
)

// MergeTable assembles the sweep's result table from per-cell results.
// The merge is a pure function of (spec, done, failed): it walks the
// spec's axes once, in the order that is part of the sweep identity,
// and looks each cell up by its digest. The rendered table is therefore
// byte-identical no matter which worker produced which cell, in what
// order, or how many times a cell was (idempotently) re-executed. Rows
// are one predictor × recovery series (recovery suffixed only when the
// sweep has more than one), columns the sweep's workloads plus a final
// mean. Cells with no result render as ERR with their failure reason.
func MergeTable(spec SweepSpec, done map[string]pipeline.Stats, failed map[string]string) *stats.Table {
	cols := append(append([]string(nil), spec.Workloads...), "average")
	t := stats.NewTable(spec.Name+" — IPC", cols)
	for _, pred := range spec.Predictors {
		for _, rec := range spec.Recoveries {
			label := pred
			if len(spec.Recoveries) > 1 {
				label += "@" + rec
			}
			m := map[string]float64{}
			var all []float64
			for _, wl := range spec.Workloads {
				id := spec.cellSpec(wl, pred, rec).Digest()
				if st, ok := done[id]; ok {
					m[wl] = st.IPC()
					all = append(all, m[wl])
				} else if why, ok := failed[id]; ok {
					t.MarkFailed(label, wl, why)
				} else {
					t.MarkFailed(label, wl, "cell not completed")
				}
			}
			if len(all) > 0 {
				m["average"] = stats.Mean(all)
			} else {
				t.MarkFailed(label, "average", "no completed cells")
			}
			t.AddRow(label, "%.3f", m)
		}
	}
	return t
}

// Reference runs the whole sweep in this process — no coordinator, no
// workers, no ledger — and merges with the same MergeTable the fleet
// uses. It is the ground truth a fleet run must match byte for byte:
// each cell is the same deterministic exp.RunJob the workers execute,
// so any divergence is a fleet bug, never simulator noise. parallel
// bounds concurrent cells (<=0 takes GOMAXPROCS); parallelism cannot
// perturb the table because cells are independent and the merge is a
// pure function of their results.
func Reference(ctx context.Context, spec SweepSpec, parallel int) (*stats.Table, error) {
	spec.Normalize(0)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	cells := spec.Cells()
	done := make(map[string]pipeline.Stats, len(cells))
	failed := map[string]string{}
	var mu sync.Mutex
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c Cell) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res, err := exp.RunJob(ctx, c.Spec, exp.Options{})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[i] = err
				failed[c.ID] = err.Error()
				return
			}
			done[c.ID] = *res.Stats
		}(i, c)
	}
	wg.Wait()
	return MergeTable(spec, done, failed), errors.Join(errs...)
}
