package exp

import (
	"sync"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
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
	t := stats.NewTable("Figure 3: static RVP, IPC (selective reissue, 80% threshold)", names)
	type key struct{ row, wl string }
	vals := map[key]float64{}
	var mu sync.Mutex

	rows := []struct {
		label string
		mk    func(name string) (core.Predictor, error)
	}{
		{"no_predict", func(string) (core.Predictor, error) { return core.NewPredictor("none") }},
		{"lvp", func(string) (core.Predictor, error) { return core.NewPredictor("lvp") }},
		{"srvp_same", func(n string) (core.Predictor, error) {
			return r.staticPredictor(n, profile.SupportNone, r.opts.Threshold)
		}},
		{"srvp_dead", func(n string) (core.Predictor, error) {
			return r.staticPredictor(n, profile.SupportDead, r.opts.Threshold)
		}},
		{"srvp_live", func(n string) (core.Predictor, error) {
			return r.staticPredictor(n, profile.SupportLive, r.opts.Threshold)
		}},
		{"srvp_live_lv", func(n string) (core.Predictor, error) {
			return r.staticPredictor(n, profile.SupportLiveLV, r.opts.Threshold)
		}},
	}
	fails, err := r.forEach(names, func(name string) error {
		for _, row := range rows {
			pred, err := row.mk(name)
			if err != nil {
				return err
			}
			st, err := r.run(name, cfg, pred)
			if err != nil {
				return err
			}
			mu.Lock()
			vals[key{row.label, name}] = st.IPC()
			mu.Unlock()
		}
		return nil
	})
	for _, row := range rows {
		m := map[string]float64{}
		for _, n := range names {
			if v, ok := vals[key{row.label, n}]; ok {
				m[n] = v
			} else {
				t.MarkFailed(row.label, n, failReason(fails, n))
			}
		}
		t.AddRow(row.label, "%.2f", m)
	}
	r.noteFailures(t, names, fails)
	return t, err
}

// Figure4 reproduces the recovery-mechanism comparison: static RVP with
// the dead optimisation under refetch, reissue, and selective reissue, at
// the more conservative 90% profile threshold.
func (r *Runner) Figure4() (*stats.Table, error) {
	names := allNames()
	t := stats.NewTable("Figure 4: recovery mechanisms, IPC (srvp_dead, 90% threshold)", names)
	type key struct{ row, wl string }
	vals := map[key]float64{}
	var mu sync.Mutex

	recoveries := []struct {
		label string
		rec   pipeline.Recovery
	}{
		{"srvp_refetch", pipeline.RecoverRefetch},
		{"srvp_reissue", pipeline.RecoverReissue},
		{"srvp_selective", pipeline.RecoverSelective},
	}
	fails, err := r.forEach(names, func(name string) error {
		base, err := r.run(name, pipeline.BaselineConfig(), core.NoPredictor{})
		if err != nil {
			return err
		}
		mu.Lock()
		vals[key{"no_predict", name}] = base.IPC()
		mu.Unlock()
		pred90, err := r.staticPredictor(name, profile.SupportDead, 0.90)
		if err != nil {
			return err
		}
		for _, rc := range recoveries {
			cfg := pipeline.BaselineConfig()
			cfg.Recovery = rc.rec
			st, err := r.run(name, cfg, pred90)
			if err != nil {
				return err
			}
			mu.Lock()
			vals[key{rc.label, name}] = st.IPC()
			mu.Unlock()
		}
		return nil
	})
	for _, label := range []string{"no_predict", "srvp_refetch", "srvp_reissue", "srvp_selective"} {
		m := map[string]float64{}
		for _, n := range names {
			if v, ok := vals[key{label, n}]; ok {
				m[n] = v
			} else {
				t.MarkFailed(label, n, failReason(fails, n))
			}
		}
		t.AddRow(label, "%.2f", m)
	}
	r.noteFailures(t, names, fails)
	return t, err
}

// Figure5 reproduces the dynamic-RVP-for-loads speedup graph: LVP, plain
// dynamic RVP, and dynamic RVP with dead and dead+LV compiler support,
// all restricted to load instructions; speedup over no prediction.
func (r *Runner) Figure5() (*stats.Table, error) {
	specs := []predictorSpec{
		{"lvp", builtin("lvp")},
		{"drvp", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportNone, true)
		}},
		{"drvp_dead", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDead, true)
		}},
		{"drvp_dead_lv", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDeadLV, true)
		}},
	}
	return r.speedupTable("Figure 5: dynamic RVP for loads, speedup over no prediction",
		pipeline.BaselineConfig(), specs, allNames())
}

// Figure6 reproduces the dynamic-RVP-for-all-instructions speedup graph,
// including the Gabbay & Mendelson register predictor.
func (r *Runner) Figure6() (*stats.Table, error) {
	specs := []predictorSpec{
		{"lvp_all", builtin("lvp_all")},
		{"Grp_all", builtin("gabbay")},
		{"drvp_all", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportNone, false)
		}},
		{"drvp_all_dead", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDead, false)
		}},
		{"drvp_all_dead_lv", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDeadLV, false)
		}},
	}
	return r.speedupTable("Figure 6: dynamic RVP for all instructions, speedup over no prediction",
		pipeline.BaselineConfig(), specs, allNames())
}

// Table2 reproduces the prediction coverage/accuracy table for dynamic
// RVP (dead and dead+LV), LVP, and the Gabbay & Mendelson register
// predictor, in the all-instruction configuration. Values are percent.
func (r *Runner) Table2() (*stats.Table, *stats.Table, error) {
	names := allNames()
	cov := stats.NewTable("Table 2a: % of instructions predicted", names)
	acc := stats.NewTable("Table 2b: prediction accuracy (%)", names)
	specs := []predictorSpec{
		{"drvp dead", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDead, false)
		}},
		{"dead_lv", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDeadLV, false)
		}},
		{"lvp", builtin("lvp_all")},
		{"G&M RP", builtin("gabbay")},
	}
	type key struct{ row, wl string }
	covV := map[key]float64{}
	accV := map[key]float64{}
	var mu sync.Mutex
	fails, err := r.forEach(names, func(name string) error {
		for _, sp := range specs {
			pred, err := sp.make(r, name)
			if err != nil {
				return err
			}
			st, err := r.run(name, pipeline.BaselineConfig(), pred)
			if err != nil {
				return err
			}
			mu.Lock()
			covV[key{sp.label, name}] = 100 * st.Coverage()
			accV[key{sp.label, name}] = 100 * st.Accuracy()
			mu.Unlock()
		}
		return nil
	})
	for _, sp := range specs {
		cm, am := map[string]float64{}, map[string]float64{}
		for _, n := range names {
			if v, ok := covV[key{sp.label, n}]; ok {
				cm[n] = v
				am[n] = accV[key{sp.label, n}]
			} else {
				cov.MarkFailed(sp.label, n, failReason(fails, n))
				acc.MarkFailed(sp.label, n, failReason(fails, n))
			}
		}
		cov.AddRow(sp.label, "%.1f", cm)
		acc.AddRow(sp.label, "%.1f", am)
	}
	r.noteFailures(cov, names, fails)
	r.noteFailures(acc, names, fails)
	return cov, acc, err
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
	t := stats.NewTable("Figure 7: realistic register re-allocation, speedup over no prediction", names)
	type key struct{ row, wl string }
	vals := map[key]float64{}
	var mu sync.Mutex
	fails, err := r.forEach(names, func(name string) error {
		prog, err := r.Program(name)
		if err != nil {
			return err
		}
		base, err := r.run(name, pipeline.BaselineConfig(), core.NoPredictor{})
		if err != nil {
			return err
		}
		set := func(row string, cycles int64) {
			mu.Lock()
			vals[key{row, name}] = float64(base.Cycles) / float64(cycles)
			mu.Unlock()
		}
		// LVP (all instructions, as in Figure 6).
		lvp, err := core.NewPredictor("lvp_all")
		if err != nil {
			return err
		}
		st, err := r.run(name, pipeline.BaselineConfig(), lvp)
		if err != nil {
			return err
		}
		set("lvp", st.Cycles)
		// Plain dynamic RVP, no re-allocation.
		pred, err := r.dynamicPredictor(name, profile.SupportNone, false)
		if err != nil {
			return err
		}
		if st, err = r.run(name, pipeline.BaselineConfig(), pred); err != nil {
			return err
		}
		set("drvp_all_noreallocate", st.Cycles)
		// Realistic re-allocation: rewrite registers, run plain RVP.
		pr, err := r.Profile(name)
		if err != nil {
			return err
		}
		lists := pr.Lists(r.opts.Threshold, false, 0)
		res, err := regalloc.Reallocate(prog, pr, lists)
		if err != nil {
			return err
		}
		realloc := core.MustDynamicRVP(core.DefaultCounterConfig(), core.WithName("drvp_realloc"))
		if st, err = r.runOn(res.Prog, pipeline.BaselineConfig(), realloc); err != nil {
			return err
		}
		set("drvp_all_dead_lv_realloc", st.Cycles)
		// Ideal re-allocation (profile lists as hints).
		ideal, err := r.dynamicPredictor(name, profile.SupportDeadLV, false)
		if err != nil {
			return err
		}
		if st, err = r.run(name, pipeline.BaselineConfig(), ideal); err != nil {
			return err
		}
		set("drvp_all_dead_lv(ideal)", st.Cycles)
		return nil
	})
	for _, label := range []string{"lvp", "drvp_all_noreallocate", "drvp_all_dead_lv_realloc", "drvp_all_dead_lv(ideal)"} {
		m := map[string]float64{}
		for _, n := range names {
			if v, ok := vals[key{label, n}]; ok {
				m[n] = v
			} else {
				t.MarkFailed(label, n, failReason(fails, n))
			}
		}
		t.AddRow(label, "%.3f", m)
	}
	r.noteFailures(t, names, fails)
	return t, err
}

// Figure8 reproduces the aggressive 16-wide machine study: LVP and
// dynamic RVP for all instructions (plain and dead+LV), speedups over no
// prediction on the doubled machine.
func (r *Runner) Figure8() (*stats.Table, error) {
	specs := []predictorSpec{
		{"lvp_all", builtin("lvp_all")},
		{"drvp_all", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportNone, false)
		}},
		{"drvp_all_dead_lv", func(rr *Runner, n string) (core.Predictor, error) {
			return rr.dynamicPredictor(n, profile.SupportDeadLV, false)
		}},
	}
	return r.speedupTable("Figure 8: 16-wide processor, speedup over no prediction",
		pipeline.AggressiveConfig(), specs, allNames())
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
