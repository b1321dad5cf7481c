package pipeline_test

import (
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/isa"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// lastValueLoads gives every load of prog a last-value hint and marks it
// for static prediction.
func lastValueLoads(prog *program.Program) (core.ReuseHints, map[int]bool) {
	hints := core.ReuseHints{}
	marked := map[int]bool{}
	for i, in := range prog.Insts {
		if isa.IsLoad(in.Op) && in.WritesReg() {
			hints[i] = core.ReuseHint{Kind: core.KindLastValue}
			marked[i] = true
		}
	}
	return hints, marked
}

// TestLastValuePredictionTracksRepeats runs static RVP with every load
// predicted from its own last value: each prediction must be correct
// exactly when the load's result repeats its previous one (zero before
// the first).
func TestLastValuePredictionTracksRepeats(t *testing.T) {
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	hints, marked := lastValueLoads(prog)
	last := map[int]uint64{}
	var hits, misses int
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	sim.SetTracer(func(rec pipeline.TraceRecord) {
		if _, ok := hints[rec.Index]; !ok {
			return
		}
		if !rec.Predicted {
			t.Fatalf("hinted load %d not predicted", rec.Index)
		}
		if repeats := rec.Value == last[rec.Index]; rec.Correct != repeats {
			t.Fatalf("load %d value %#x after %#x: correct=%v", rec.Index, rec.Value, last[rec.Index], rec.Correct)
		}
		if rec.Correct {
			hits++
		} else {
			misses++
		}
		last[rec.Index] = rec.Value
	})
	if _, err := sim.Run(prog, core.NewStaticRVP("static", marked, hints), 20_000); err != nil {
		t.Fatal(err)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("want both outcomes, got %d correct and %d wrong", hits, misses)
	}
}
