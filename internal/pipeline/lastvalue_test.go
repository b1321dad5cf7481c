package pipeline_test

import (
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/isa"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// TestLastValueStatsPinned runs li on the baseline machine for 60k
// instructions with every load LV-hinted, under dynamic and static RVP.
// A KindLastValue prediction reads the pipeline's own per-instruction
// last value; both runs must keep the Stats recorded when the predictors
// still held their own copy of it.
func TestLastValueStatsPinned(t *testing.T) {
	const budget = 60_000
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	hints, marked := lastValueLoads(prog)
	for _, tc := range []struct {
		name      string
		pred      core.Predictor
		wantStats string
	}{
		{
			name:      "drvp",
			pred:      core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithHints(hints)),
			wantStats: "cycles=38391 insts=60000 IPC=1.563 loads=22250 stores=333 pred=7728 (12.9% of insts, 100.0% correct) brMiss=1.76% stalls=window:1011/intIQ:24809/fpIQ:0",
		},
		{
			name:      "static",
			pred:      core.NewStaticRVP("static", marked, hints),
			wantStats: "cycles=44756 insts=60000 IPC=1.341 loads=22250 stores=333 pred=22250 (37.1% of insts, 36.0% correct) brMiss=1.76% stalls=window:697/intIQ:31246/fpIQ:0",
		},
	} {
		got, err := pipeline.MustNew(pipeline.BaselineConfig()).Run(prog, tc.pred, budget)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != tc.wantStats {
			t.Errorf("%s:\n%s\nwant\n%s", tc.name, got, tc.wantStats)
		}
	}
}

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
