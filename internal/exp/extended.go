package exp

import (
	"errors"

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
	cfg := pipeline.BaselineConfig()
	// Rows name built-in predictors by their registry wire names.
	g := r.grid(names, &cfg,
		series{label: "drvp (storageless)", cfg: cfg, pred: registry("rvp")},
		series{label: "G&M register pred", cfg: cfg, pred: registry("gabbay")},
		series{label: "lvp", cfg: cfg, pred: registry("lvp_all")},
		series{label: "stride", cfg: cfg, pred: registry("stride")},
		series{label: "context (order 2)", cfg: cfg, pred: registry("context")},
	)
	t := stats.NewTable("Extension: predictor cost/benefit (avg speedup vs storage)",
		[]string{"storage Kbit", "avg speedup"})
	for j, s := range g.rows {
		pred, _ := s.pred("") // registry constructors ignore the workload
		row := map[string]float64{"storage Kbit": float64(pred.StorageBits()) / 1024}
		g.mean(t, row, j, "avg speedup", speedup)
		t.AddRow(s.label, "%.3f", row)
	}
	r.noteFailures(t, names, g.fails)
	t.AddNote("storage counts value-prediction state only (values, tags, strides, histories, counters)")
	return t, g.err
}

// ThresholdTable is a second extension: the confidence-threshold sweep
// across the whole suite, showing the accuracy/coverage trade the paper's
// resetting counters make at threshold 7. Each threshold is its own grid,
// so every workload runs its baseline before each threshold's cell.
func (r *Runner) ThresholdTable() (*stats.Table, error) {
	names := allNames()
	cfg := pipeline.BaselineConfig()
	t := stats.NewTable("Extension: confidence threshold sweep (dynamic RVP, all instructions)",
		[]string{"avg speedup", "coverage %", "accuracy %"})
	fails := map[string]error{}
	var errs []error
	for _, th := range []uint8{1, 3, 5, 7} {
		cc := core.DefaultCounterConfig()
		cc.Threshold = th
		g := r.grid(names, &cfg, series{label: "threshold " + string('0'+th), cfg: cfg,
			pred: func(string) (core.Predictor, error) { return core.NewDynamicRVP(cc) }})
		errs = append(errs, g.err)
		for n, e := range g.fails {
			fails[n] = e
		}
		row := map[string]float64{}
		g.mean(t, row, 0, "avg speedup", speedup)
		g.mean(t, row, 0, "coverage %", coverage)
		g.mean(t, row, 0, "accuracy %", accuracy)
		t.AddRow(g.rows[0].label, "%.3f", row)
	}
	r.noteFailures(t, names, fails)
	return t, errors.Join(errs...)
}
