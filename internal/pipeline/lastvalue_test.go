package pipeline_test

import (
	"compress/gzip"
	"io"
	"os"
	"testing"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/core"
	"rvpsim/internal/isa"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// TestResumeLastValueCheckpoints resumes two checkpoints written when the
// RVP predictors still kept their own copy of each instruction's last
// value in the snapshot (li, baseline machine, taken at 30001 committed
// instructions of 60000). Every load carries a last-value hint, so the
// predictors' old LastOut arrays were non-empty. The predictors now hold
// no values: a KindLastValue prediction reads the pipeline's own
// per-instruction last value, which the timing state restores. Both runs
// must end with the Stats the uninterrupted run had when the checkpoints
// were written.
func TestResumeLastValueCheckpoints(t *testing.T) {
	const budget = 60_000
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	hints, marked := lastValueLoads(prog)
	for _, tc := range []struct {
		file      string
		pred      func() core.Predictor
		wantStats string
	}{
		{
			file:      "testdata/li_30001_drvp_lv.ckpt.gz",
			pred:      func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithHints(hints)) },
			wantStats: "cycles=38391 insts=60000 IPC=1.563 loads=22250 stores=333 pred=7728 (12.9% of insts, 100.0% correct) brMiss=1.76% stalls=window:1011/intIQ:24809/fpIQ:0",
		},
		{
			file:      "testdata/li_30001_static_lv.ckpt.gz",
			pred:      func() core.Predictor { return core.NewStaticRVP("static", marked, hints) },
			wantStats: "cycles=44756 insts=60000 IPC=1.341 loads=22250 stores=333 pred=22250 (37.1% of insts, 36.0% correct) brMiss=1.76% stalls=window:697/intIQ:31246/fpIQ:0",
		},
	} {
		snap := loadGzipCheckpoint(t, tc.file)
		live := 0
		for i := range hints {
			if snap.Timing.LVLast[i] != 0 {
				live++
			}
		}
		if live == 0 {
			t.Fatalf("%s: no hinted load has a last value at the checkpoint", tc.file)
		}
		sim, err := pipeline.RestoreSim(snap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.ResumeContext(t.Context(), snap, prog, tc.pred(), budget)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if got.String() != tc.wantStats {
			t.Errorf("%s: resumed run:\n%s\nwant\n%s", tc.file, got, tc.wantStats)
		}
		fresh, err := pipeline.MustNew(snap.Config).Run(prog, tc.pred(), budget)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh {
			t.Errorf("%s: resumed Stats differ from an uninterrupted run:\n%+v\nvs\n%+v", tc.file, got, fresh)
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

// loadGzipCheckpoint reads a gzipped checkpoint from testdata.
func loadGzipCheckpoint(t *testing.T, path string) *pipeline.Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
