package pipeline_test

import (
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// BenchmarkSimMatrix times one reused baseline Sim over the nine
// workloads times the six predictors of rvpbench's sim-hot workload, at
// 200k instructions a cell, and reports ns per committed instruction.
// It profiles a hot-loop change without the benchmark harness:
//
//	go test -run '^$' -bench SimMatrix -cpuprofile cpu.out ./internal/pipeline/
func BenchmarkSimMatrix(b *testing.B) {
	const insts = 200_000
	mks := []func() core.Predictor{
		func() core.Predictor { return core.NoPredictor{} },
		func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) },
		func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp_all") },
		func() core.Predictor { return core.MustGabbayRVP(core.DefaultCounterConfig(), false) },
		func() core.Predictor { return core.MustStridePredictor(core.DefaultStrideConfig()) },
		func() core.Predictor { return core.MustContextPredictor(core.DefaultContextConfig()) },
	}
	type cell struct {
		prog *program.Program
		pred core.Predictor
	}
	var cells []cell
	for _, wl := range workloads.Names() {
		prog, err := workloads.ByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		for _, mk := range mks {
			cells = append(cells, cell{prog, mk()})
		}
	}
	sim := pipeline.MustNew(pipeline.BaselineConfig())
	var committed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			st, err := sim.Run(c.prog, c.pred, insts)
			if err != nil {
				b.Fatal(err)
			}
			committed += st.Committed
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/inst")
}
