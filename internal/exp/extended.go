package exp

import (
	"errors"
	"sync"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/stats"
)

// StorageTable is an extension beyond the paper's figures: the cost/benefit
// comparison its introduction argues in prose. For each predictor it
// reports the average speedup across the nine workloads next to the
// value-prediction storage the scheme needs (in Kbits). RVP's storage is
// three orders of magnitude below the context predictor's.
func (r *Runner) StorageTable() (*stats.Table, error) {
	names := allNames()
	t := stats.NewTable("Extension: predictor cost/benefit (avg speedup vs storage)",
		[]string{"storage Kbit", "avg speedup"})

	// Rows name built-in predictors by their registry wire names.
	specs := []struct{ label, name string }{
		{"drvp (storageless)", "rvp"},
		{"G&M register pred", "gabbay"},
		{"lvp", "lvp_all"},
		{"stride", "stride"},
		{"context (order 2)", "context"},
	}

	type key struct{ spec, wl string }
	speed := map[key]float64{}
	var mu sync.Mutex
	fails, err := r.forEach(names, func(name string) error {
		base, err := r.run(name, pipeline.BaselineConfig(), core.NoPredictor{})
		if err != nil {
			return err
		}
		for _, sp := range specs {
			pred, err := core.NewPredictor(sp.name)
			if err != nil {
				return err
			}
			st, err := r.run(name, pipeline.BaselineConfig(), pred)
			if err != nil {
				return err
			}
			mu.Lock()
			speed[key{sp.label, name}] = float64(base.Cycles) / float64(st.Cycles)
			mu.Unlock()
		}
		return nil
	})
	for _, sp := range specs {
		pred, _ := core.NewPredictor(sp.name) // a registry name, as above
		var all []float64
		for _, n := range names {
			if v, ok := speed[key{sp.label, n}]; ok {
				all = append(all, v)
			}
		}
		row := map[string]float64{"storage Kbit": float64(pred.StorageBits()) / 1024}
		if len(all) > 0 {
			row["avg speedup"] = stats.Mean(all)
		} else {
			t.MarkFailed(sp.label, "avg speedup", "no successful runs")
		}
		t.AddRow(sp.label, "%.3f", row)
	}
	r.noteFailures(t, names, fails)
	t.AddNote("storage counts value-prediction state only (values, tags, strides, histories, counters)")
	return t, err
}

// ThresholdTable is a second extension: the confidence-threshold sweep
// across the whole suite, showing the accuracy/coverage trade the paper's
// resetting counters make at threshold 7.
func (r *Runner) ThresholdTable() (*stats.Table, error) {
	names := allNames()
	t := stats.NewTable("Extension: confidence threshold sweep (dynamic RVP, all instructions)",
		[]string{"avg speedup", "coverage %", "accuracy %"})
	allFails := map[string]error{}
	var errs []error
	for _, th := range []uint8{1, 3, 5, 7} {
		cc := core.DefaultCounterConfig()
		cc.Threshold = th
		type acc struct{ spd, cov, accy float64 }
		var mu sync.Mutex
		var rows []acc
		fails, err := r.forEach(names, func(name string) error {
			base, err := r.run(name, pipeline.BaselineConfig(), core.NoPredictor{})
			if err != nil {
				return err
			}
			pred, err := core.NewDynamicRVP(cc)
			if err != nil {
				return err
			}
			st, err := r.run(name, pipeline.BaselineConfig(), pred)
			if err != nil {
				return err
			}
			mu.Lock()
			rows = append(rows, acc{
				spd:  float64(base.Cycles) / float64(st.Cycles),
				cov:  100 * st.Coverage(),
				accy: 100 * st.Accuracy(),
			})
			mu.Unlock()
			return nil
		})
		if err != nil {
			errs = append(errs, err)
		}
		for n, e := range fails {
			allFails[n] = e
		}
		label := "threshold " + string('0'+th)
		if len(rows) == 0 {
			for _, c := range []string{"avg speedup", "coverage %", "accuracy %"} {
				t.MarkFailed(label, c, "no successful runs")
			}
			t.AddRow(label, "%.3f", map[string]float64{})
			continue
		}
		var spd, cov, accy []float64
		for _, x := range rows {
			spd = append(spd, x.spd)
			cov = append(cov, x.cov)
			accy = append(accy, x.accy)
		}
		t.AddRow(label, "%.3f", map[string]float64{
			"avg speedup": stats.Mean(spd),
			"coverage %":  stats.Mean(cov),
			"accuracy %":  stats.Mean(accy),
		})
	}
	r.noteFailures(t, names, allFails)
	return t, errors.Join(errs...)
}
