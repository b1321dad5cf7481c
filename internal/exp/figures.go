package exp

import (
	"sync"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/stats"
)

// Figure1 reproduces the degree-of-register-value-reuse graph: for each
// workload, the fraction of dynamic loads whose value was already in the
// same register, a dead register, any register, or either a register or
// the load's last value; plus C-SPEC and F-SPEC averages.
func (r *Runner) Figure1() (*stats.Table, error) {
	names := allNames()
	cols := append(append([]string(nil), names...), "C avg", "F avg")
	t := stats.NewTable("Figure 1: register-value reuse for loads (%)", cols)
	rows := []string{"same register", "dead register", "any register", "register or lvp"}
	vals := map[string]map[string]float64{}
	for _, row := range rows {
		vals[row] = map[string]float64{}
	}
	var mu sync.Mutex
	fails, err := r.forEach(names, func(name string) error {
		pr, err := r.Profile(name)
		if err != nil {
			return err
		}
		s := pr.LoadReuseSummary()
		mu.Lock()
		defer mu.Unlock()
		vals["same register"][name] = 100 * s.Same
		vals["dead register"][name] = 100 * s.Dead
		vals["any register"][name] = 100 * s.Any
		vals["register or lvp"][name] = 100 * s.OrLV
		return nil
	})
	cint := []string{"go", "ijpeg", "li", "m88ksim", "perl"}
	cfp := []string{"hydro2d", "mgrid", "su2cor", "turb3d"}
	avg := func(row string, group []string) (float64, bool) {
		var vs []float64
		for _, n := range group {
			if v, ok := vals[row][n]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return 0, false
		}
		return stats.Mean(vs), true
	}
	for _, row := range rows {
		for _, n := range names {
			if _, ok := vals[row][n]; !ok {
				t.MarkFailed(row, n, failReason(fails, n))
			}
		}
		if v, ok := avg(row, cint); ok {
			vals[row]["C avg"] = v
		} else {
			t.MarkFailed(row, "C avg", "no successful runs")
		}
		if v, ok := avg(row, cfp); ok {
			vals[row]["F avg"] = v
		} else {
			t.MarkFailed(row, "F avg", "no successful runs")
		}
		t.AddRow(row, "%.1f", vals[row])
	}
	r.noteFailures(t, names, fails)
	return t, err
}

// Figure3 reproduces the static-RVP IPC comparison: no prediction, LVP,
// and static RVP at the four compiler-support levels, with selective
// reissue and the 80% profile threshold.
func (r *Runner) Figure3() (*stats.Table, error) {
	names := allNames()
	cfg := pipeline.BaselineConfig()
	cfg.Recovery = pipeline.RecoverSelective
	th := r.opts.Threshold
	g := r.grid(names, nil,
		series{label: "no_predict", cfg: cfg, pred: registry("none")},
		series{label: "lvp", cfg: cfg, pred: registry("lvp")},
		series{label: "srvp_same", cfg: cfg, pred: r.static(profile.SupportNone, th)},
		series{label: "srvp_dead", cfg: cfg, pred: r.static(profile.SupportDead, th)},
		series{label: "srvp_live", cfg: cfg, pred: r.static(profile.SupportLive, th)},
		series{label: "srvp_live_lv", cfg: cfg, pred: r.static(profile.SupportLiveLV, th)},
	)
	t := stats.NewTable("Figure 3: static RVP, IPC (selective reissue, 80% threshold)", names)
	g.addRows(t, ipc, "%.2f", false)
	r.noteFailures(t, names, g.fails)
	return t, g.err
}

// Figure4 reproduces the recovery-mechanism comparison: static RVP with
// the dead optimisation under refetch, reissue, and selective reissue, at
// the more conservative 90% profile threshold.
func (r *Runner) Figure4() (*stats.Table, error) {
	names := allNames()
	recovery := func(rec pipeline.Recovery) pipeline.Config {
		cfg := pipeline.BaselineConfig()
		cfg.Recovery = rec
		return cfg
	}
	dead90 := r.static(profile.SupportDead, 0.90)
	g := r.grid(names, nil,
		series{label: "no_predict", cfg: pipeline.BaselineConfig(), pred: registry("none")},
		series{label: "srvp_refetch", cfg: recovery(pipeline.RecoverRefetch), pred: dead90},
		series{label: "srvp_reissue", cfg: recovery(pipeline.RecoverReissue), pred: dead90},
		series{label: "srvp_selective", cfg: recovery(pipeline.RecoverSelective), pred: dead90},
	)
	t := stats.NewTable("Figure 4: recovery mechanisms, IPC (srvp_dead, 90% threshold)", names)
	g.addRows(t, ipc, "%.2f", false)
	r.noteFailures(t, names, g.fails)
	return t, g.err
}

// Figure5 reproduces the dynamic-RVP-for-loads speedup graph: LVP, plain
// dynamic RVP, and dynamic RVP with dead and dead+LV compiler support,
// all restricted to load instructions; speedup over no prediction.
func (r *Runner) Figure5() (*stats.Table, error) {
	cfg := pipeline.BaselineConfig()
	return r.speedupFigure("Figure 5: dynamic RVP for loads, speedup over no prediction", cfg,
		series{label: "lvp", cfg: cfg, pred: registry("lvp")},
		series{label: "drvp", cfg: cfg, pred: r.dynamic(profile.SupportNone, true)},
		series{label: "drvp_dead", cfg: cfg, pred: r.dynamic(profile.SupportDead, true)},
		series{label: "drvp_dead_lv", cfg: cfg, pred: r.dynamic(profile.SupportDeadLV, true)},
	)
}

// Figure6 reproduces the dynamic-RVP-for-all-instructions speedup graph,
// including the Gabbay & Mendelson register predictor.
func (r *Runner) Figure6() (*stats.Table, error) {
	cfg := pipeline.BaselineConfig()
	return r.speedupFigure("Figure 6: dynamic RVP for all instructions, speedup over no prediction", cfg,
		series{label: "lvp_all", cfg: cfg, pred: registry("lvp_all")},
		series{label: "Grp_all", cfg: cfg, pred: registry("gabbay")},
		series{label: "drvp_all", cfg: cfg, pred: r.dynamic(profile.SupportNone, false)},
		series{label: "drvp_all_dead", cfg: cfg, pred: r.dynamic(profile.SupportDead, false)},
		series{label: "drvp_all_dead_lv", cfg: cfg, pred: r.dynamic(profile.SupportDeadLV, false)},
	)
}

// Table2 reproduces the prediction coverage/accuracy table for dynamic
// RVP (dead and dead+LV), LVP, and the Gabbay & Mendelson register
// predictor, in the all-instruction configuration. Values are percent.
func (r *Runner) Table2() (*stats.Table, *stats.Table, error) {
	names := allNames()
	cfg := pipeline.BaselineConfig()
	g := r.grid(names, nil,
		series{label: "drvp dead", cfg: cfg, pred: r.dynamic(profile.SupportDead, false)},
		series{label: "dead_lv", cfg: cfg, pred: r.dynamic(profile.SupportDeadLV, false)},
		series{label: "lvp", cfg: cfg, pred: registry("lvp_all")},
		series{label: "G&M RP", cfg: cfg, pred: registry("gabbay")},
	)
	cov := stats.NewTable("Table 2a: % of instructions predicted", names)
	acc := stats.NewTable("Table 2b: prediction accuracy (%)", names)
	g.addRows(cov, coverage, "%.1f", false)
	g.addRows(acc, accuracy, "%.1f", false)
	r.noteFailures(cov, names, g.fails)
	r.noteFailures(acc, names, g.fails)
	return cov, acc, g.err
}

// Figure7Workloads are the four applications the paper shows (the ones
// where re-allocation mattered).
var Figure7Workloads = []string{"hydro2d", "li", "mgrid", "su2cor"}

// Figure7 reproduces the realistic register re-allocation study: LVP,
// dynamic RVP for all instructions with no re-allocation, with real
// Chaitin-colouring re-allocation (the rewritten program runs with plain
// same-register RVP), and with ideal (profile-list) re-allocation.
func (r *Runner) Figure7() (*stats.Table, error) {
	names := Figure7Workloads
	cfg := pipeline.BaselineConfig()
	g := r.grid(names, &cfg,
		series{label: "lvp", cfg: cfg, pred: registry("lvp_all")},
		series{label: "drvp_all_noreallocate", cfg: cfg, pred: r.dynamic(profile.SupportNone, false)},
		series{label: "drvp_all_dead_lv_realloc", cfg: cfg, prog: r.reallocated,
			pred: func(string) (core.Predictor, error) {
				return core.NewDynamicRVP(core.DefaultCounterConfig(), core.WithName("drvp_realloc"))
			}},
		series{label: "drvp_all_dead_lv(ideal)", cfg: cfg, pred: r.dynamic(profile.SupportDeadLV, false)},
	)
	t := stats.NewTable("Figure 7: realistic register re-allocation, speedup over no prediction", names)
	g.addRows(t, speedup, "%.3f", false)
	r.noteFailures(t, names, g.fails)
	return t, g.err
}

// reallocated rewrites a workload's registers by Chaitin colouring from
// its profile at the runner's threshold, so plain same-register RVP finds
// the reuse the profile lists.
func (r *Runner) reallocated(name string) (*program.Program, error) {
	prog, err := r.Program(name)
	if err != nil {
		return nil, err
	}
	pr, err := r.Profile(name)
	if err != nil {
		return nil, err
	}
	res, err := regalloc.Reallocate(prog, pr, pr.Lists(r.opts.Threshold, false, 0))
	if err != nil {
		return nil, err
	}
	return res.Prog, nil
}

// Figure8 reproduces the aggressive 16-wide machine study: LVP and
// dynamic RVP for all instructions (plain and dead+LV), speedups over no
// prediction on the doubled machine.
func (r *Runner) Figure8() (*stats.Table, error) {
	cfg := pipeline.AggressiveConfig()
	return r.speedupFigure("Figure 8: 16-wide processor, speedup over no prediction", cfg,
		series{label: "lvp_all", cfg: cfg, pred: registry("lvp_all")},
		series{label: "drvp_all", cfg: cfg, pred: r.dynamic(profile.SupportNone, false)},
		series{label: "drvp_all_dead_lv", cfg: cfg, pred: r.dynamic(profile.SupportDeadLV, false)},
	)
}

// speedupFigure is Figures 5, 6 and 8: every workload, each series'
// speedup over no prediction on cfg, and the average.
func (r *Runner) speedupFigure(title string, cfg pipeline.Config, rows ...series) (*stats.Table, error) {
	names := allNames()
	g := r.grid(names, &cfg, rows...)
	t := stats.NewTable(title, append(append([]string(nil), names...), "average"))
	g.addRows(t, speedup, "%.3f", true)
	r.noteFailures(t, names, g.fails)
	return t, g.err
}

// Table1 renders the simulated machine configuration (the paper's
// Table 1), for completeness of the experiment index.
func (r *Runner) Table1() string {
	cfg := pipeline.BaselineConfig()
	t := stats.NewTable("Table 1: processor parameters", []string{"value"})
	t.AddRow("inst queue (int)", "%.0f", map[string]float64{"value": float64(cfg.IntIQ)})
	t.AddRow("inst queue (fp)", "%.0f", map[string]float64{"value": float64(cfg.FPIQ)})
	t.AddRow("integer units", "%.0f", map[string]float64{"value": float64(cfg.IntALUs)})
	t.AddRow("load/store units", "%.0f", map[string]float64{"value": float64(cfg.LoadStore)})
	t.AddRow("fp units", "%.0f", map[string]float64{"value": float64(cfg.FPUnits)})
	t.AddRow("fetch width", "%.0f", map[string]float64{"value": float64(cfg.FetchWidth)})
	t.AddRow("mispredict penalty", "%.0f", map[string]float64{"value": float64(cfg.MispredPenalty)})
	t.AddRow("window", "%.0f", map[string]float64{"value": float64(cfg.Window)})
	t.AddNote("L1I/L1D 32KB 4-way 64B lines, 20-cycle miss; L2 512KB 2-way, 80-cycle miss")
	t.AddNote("gshare 2K x 2-bit PHT, 256-entry BTB")
	return t.String()
}
