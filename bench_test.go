package rvpsim_test

// One benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates its result at a reduced instruction budget
// and reports the headline number of that experiment as a custom metric,
// so `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkFigure1  — average "register or lvp" load-reuse percentage
//	BenchmarkFigure3  — average static-RVP IPC gain over no prediction
//	BenchmarkFigure4  — selective-reissue IPC advantage over reissue
//	BenchmarkFigure5  — average drvp_dead_lv speedup (loads)
//	BenchmarkFigure6  — average drvp_all_dead_lv speedup (all insts)
//	BenchmarkTable2   — average drvp-dead coverage and accuracy
//	BenchmarkFigure7  — realloc speedup recovered vs ideal (fraction)
//	BenchmarkFigure8  — average drvp_all_dead_lv speedup on the 16-wide
//
// Absolute values shift with the budget; the shapes are asserted by the
// unit tests in internal/exp.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rvpsim"
	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/stats"
	"rvpsim/internal/workloads"
)

const benchInsts = 300_000

func newExperiments(b *testing.B) *rvpsim.Experiments {
	b.Helper()
	return rvpsim.NewExperiments(rvpsim.ExperimentOptions{
		Insts:        benchInsts,
		ProfileInsts: benchInsts / 4,
		Threshold:    0.80,
		Parallel:     true,
	})
}

// rowMean averages a row over the workload columns (ignoring aggregate
// columns like "average").
func rowMean(t *rvpsim.Table, label string, cols []string) float64 {
	row := t.Row(label)
	var vs []float64
	for _, c := range cols {
		if v, ok := row[c]; ok {
			vs = append(vs, v)
		}
	}
	return stats.Mean(vs)
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		row := t.Row("register or lvp")
		b.ReportMetric((row["C avg"]+row["F avg"])/2, "orlvp_%")
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		names := rvpsim.Workloads()
		base := rowMean(t, "no_predict", names)
		srvp := rowMean(t, "srvp_live_lv", names)
		b.ReportMetric(srvp/base, "srvp_ipc_ratio")
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		names := rvpsim.Workloads()
		sel := rowMean(t, "srvp_selective", names)
		re := rowMean(t, "srvp_reissue", names)
		b.ReportMetric(sel/re, "selective_vs_reissue")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Row("drvp_dead_lv")["average"], "avg_speedup")
		b.ReportMetric(t.Row("lvp")["average"], "lvp_speedup")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Row("drvp_all_dead_lv")["average"], "avg_speedup")
		b.ReportMetric(t.Row("Grp_all")["average"], "grp_speedup")
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		cov, acc, err := e.Table2()
		if err != nil {
			b.Fatal(err)
		}
		names := rvpsim.Workloads()
		b.ReportMetric(rowMean(cov, "drvp dead", names), "coverage_%")
		b.ReportMetric(rowMean(acc, "drvp dead", names), "accuracy_%")
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		cols := []string{"hydro2d", "li", "mgrid", "su2cor"}
		realloc := rowMean(t, "drvp_all_dead_lv_realloc", cols)
		ideal := rowMean(t, "drvp_all_dead_lv(ideal)", cols)
		b.ReportMetric(realloc/ideal, "realloc_vs_ideal")
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := newExperiments(b)
		t, err := e.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(t.Row("drvp_all_dead_lv")["average"], "avg_speedup_16wide")
	}
}

// BenchmarkSimulator measures raw simulation throughput (committed
// instructions per wall-clock second) on one representative workload.
func BenchmarkSimulator(b *testing.B) {
	prog, err := rvpsim.Workload("li")
	if err != nil {
		b.Fatal(err)
	}
	cfg := rvpsim.BaselineConfig()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := rvpsim.Run(context.Background(), prog, cfg, rvpsim.MustPredictor("rvp"), rvpsim.RunOptions{MaxInsts: benchInsts})
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Committed
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "sim_insts/s")
}

// BenchmarkSimulatorParallel measures aggregate machine throughput: W
// goroutines, each owning a private simulator and predictor (reused
// across iterations, exercising the recycled-runState path sweeps use),
// all committing against one shared metrics registry. Sub-benchmarks at
// 1, 2, and GOMAXPROCS workers expose the scaling curve. `make pgo`
// profiles it, together with BenchmarkFigure5.
func BenchmarkSimulatorParallel(b *testing.B) {
	prog, err := workloads.ByName("li")
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	cpus := runtime.GOMAXPROCS(0)
	widths := []int{1, 2}
	if cpus > 2 {
		widths = append(widths, cpus)
	}
	reg := obs.NewRegistry()
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var insts atomic.Uint64
			var wg sync.WaitGroup
			b.ResetTimer()
			for i := 0; i < w; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sim := pipeline.MustNew(cfg)
					sim.SetObserver(obs.NewObserverWith(reg))
					pred := core.MustDynamicRVP(core.DefaultCounterConfig())
					for n := 0; n < b.N; n++ {
						st, err := sim.Run(prog, pred, benchInsts)
						if err != nil {
							b.Error(err)
							return
						}
						insts.Add(st.Committed)
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(insts.Load())/b.Elapsed().Seconds(), "sim_insts_per_machine/s")
			b.ReportMetric(float64(cpus), "machine_cpus")
		})
	}
}
