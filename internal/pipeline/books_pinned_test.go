package pipeline_test

import (
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

func rvp() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) }

// TestIssueGrowthPinned stretches memory latencies far enough that the
// issue books must grow from inside the run loop; no pinned figure cell
// does, since each fits in the starting length. The run must keep the
// Stats recorded before the books became growable.
func TestIssueGrowthPinned(t *testing.T) {
	const wantStats = "cycles=73273 insts=40000 IPC=0.546 loads=14872 stores=170 pred=4943 (12.4% of insts, 100.0% correct) brMiss=1.43% stalls=window:431/intIQ:59368/fpIQ:0"
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	sim.SetFaults(faultinject.New(faultinject.Config{MemEvery: 1000, MemExtra: 3000}))
	got, err := sim.Run(prog, rvp(), 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := pipeline.IssueRingLen(sim); n <= pipeline.IssueRingStart {
		t.Errorf("issue books never grew: %d slots", n)
	}
	if got.String() != wantStats {
		t.Errorf("run:\n%s\nwant\n%s", got, wantStats)
	}
}

// TestFixedRingStatsPinned runs hydro2d with one predict port and
// reissue recovery for 60k instructions. It must keep the Stats recorded
// when the bandwidth books were fixed 64K-cycle rings.
func TestFixedRingStatsPinned(t *testing.T) {
	const wantStats = "cycles=56895 insts=60000 IPC=1.055 loads=22043 stores=3149 pred=24039 (40.1% of insts, 99.9% correct) brMiss=2.11% stalls=window:2215/intIQ:46719/fpIQ:0"
	prog, err := workloads.ByName("hydro2d")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	cfg.PredictPorts = 1
	cfg.Recovery = pipeline.RecoverReissue
	got, err := pipeline.MustNew(cfg).Run(prog, rvp(), 60_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != wantStats {
		t.Errorf("run:\n%s\nwant\n%s", got, wantStats)
	}
}
