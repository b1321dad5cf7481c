package exp

import (
	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/stats"
)

// series is one row of a figure: a label, the machine it runs on and its
// predictor, built per workload. prog, when set, replaces the workload's
// own program (Figure 7's re-allocated binaries).
type series struct {
	label string
	cfg   pipeline.Config
	pred  func(workload string) (core.Predictor, error)
	prog  func(workload string) (*program.Program, error)
}

// grid is one figure's measurements. A workload stops at its first
// error, so the series it measured are a prefix of rows.
type grid struct {
	names []string
	rows  []series
	base  []pipeline.Stats   // [workload]: the baseline, zero without one
	cells [][]pipeline.Stats // [workload][series]: the measured prefix
	fails map[string]error
	err   error
}

// metric reduces a measured cell to the number a table shows.
type metric func(base, st pipeline.Stats) float64

func ipc(_, st pipeline.Stats) float64        { return st.IPC() }
func speedup(base, st pipeline.Stats) float64 { return float64(base.Cycles) / float64(st.Cycles) }
func coverage(_, st pipeline.Stats) float64   { return 100 * st.Coverage() }
func accuracy(_, st pipeline.Stats) float64   { return 100 * st.Accuracy() }

// grid runs every series over every workload on the forEach pool. Each
// workload runs the no-prediction baseline on *base first when base is
// set, then each series in order, and stops at its first error. That
// sequence is fixed because a fault injector counts its workload's runs.
func (r *Runner) grid(names []string, base *pipeline.Config, rows ...series) *grid {
	g := &grid{names: names, rows: rows,
		base: make([]pipeline.Stats, len(names)), cells: make([][]pipeline.Stats, len(names))}
	index := make(map[string]int, len(names))
	for w, n := range names {
		index[n] = w
	}
	g.fails, g.err = r.forEach(names, func(name string) error {
		w := index[name]
		g.cells[w] = nil // a retried workload starts over
		own, err := r.Program(name)
		if err != nil {
			return err
		}
		if base != nil {
			if g.base[w], err = r.runOn(own, *base, core.NoPredictor{}); err != nil {
				return err
			}
		}
		for _, s := range rows {
			p := own
			if s.prog != nil {
				if p, err = s.prog(name); err != nil {
					return err
				}
			}
			pred, err := s.pred(name)
			if err != nil {
				return err
			}
			st, err := r.runOn(p, s.cfg, pred)
			if err != nil {
				return err
			}
			g.cells[w] = append(g.cells[w], st)
		}
		return nil
	})
	return g
}

// value is series j's metric on workload w, false when unmeasured.
func (g *grid) value(w, j int, m metric) (float64, bool) {
	if j >= len(g.cells[w]) {
		return 0, false
	}
	return m(g.base[w], g.cells[w][j]), true
}

// addRows appends one row per series to t: the metric for each workload,
// ERR with the workload's failure where a cell was not measured, and
// with average an "average" column as well.
func (g *grid) addRows(t *stats.Table, m metric, format string, average bool) {
	for j, s := range g.rows {
		vals := map[string]float64{}
		for w, n := range g.names {
			if v, ok := g.value(w, j, m); ok {
				vals[n] = v
			} else {
				t.MarkFailed(s.label, n, failReason(g.fails, n))
			}
		}
		if average {
			g.mean(t, vals, j, "average", m)
		}
		t.AddRow(s.label, format, vals)
	}
}

// mean sets vals[col] to series j's metric averaged over the workloads
// that measured it, summed in workload order so the result does not
// depend on scheduling, or marks the cell failed when none did.
func (g *grid) mean(t *stats.Table, vals map[string]float64, j int, col string, m metric) {
	var vs []float64
	for w := range g.names {
		if v, ok := g.value(w, j, m); ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		t.MarkFailed(g.rows[j].label, col, "no successful runs")
		return
	}
	vals[col] = stats.Mean(vs)
}

// registry is a series predictor from the core registry.
func registry(name string) func(string) (core.Predictor, error) {
	return func(string) (core.Predictor, error) { return core.NewPredictor(name) }
}
