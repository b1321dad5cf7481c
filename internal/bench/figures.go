package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/stats"
)

// figureDrivers are the jobs cmd/experiments runs by default, keyed as
// its -only flag names them. Each returns its rendered output (what the
// golden digest covers) and its tables.
var figureDrivers = []struct {
	key string
	run func(r *exp.Runner) (string, []*stats.Table, error)
}{
	{"fig1", oneTable((*exp.Runner).Figure1)},
	{"tab1", func(r *exp.Runner) (string, []*stats.Table, error) { return r.Table1(), nil, nil }},
	{"fig3", oneTable((*exp.Runner).Figure3)},
	{"fig4", oneTable((*exp.Runner).Figure4)},
	{"fig5", oneTable((*exp.Runner).Figure5)},
	{"fig6", oneTable((*exp.Runner).Figure6)},
	{"tab2", func(r *exp.Runner) (string, []*stats.Table, error) {
		cov, acc, err := r.Table2()
		return render(cov, acc), []*stats.Table{cov, acc}, err
	}},
	{"fig7", oneTable((*exp.Runner).Figure7)},
	{"fig8", oneTable((*exp.Runner).Figure8)},
	{"ext", func(r *exp.Runner) (string, []*stats.Table, error) {
		st, err := r.StorageTable()
		th, err2 := r.ThresholdTable()
		return render(st, th), []*stats.Table{st, th}, errors.Join(err, err2)
	}},
}

func oneTable(f func(*exp.Runner) (*stats.Table, error)) func(*exp.Runner) (string, []*stats.Table, error) {
	return func(r *exp.Runner) (string, []*stats.Table, error) {
		t, err := f(r)
		return render(t), []*stats.Table{t}, err
	}
}

func render(tables ...*stats.Table) string {
	var s string
	for _, t := range tables {
		if t != nil {
			s += t.String()
		}
	}
	return s
}

// paperSpeedup is the paper's headline average speedup of dynamic RVP with
// dead+LV compiler support, which figures row drvp_all_dead_lv reproduces.
var paperSpeedup = map[string]float64{"fig6": 1.12, "fig8": 1.15}

// newFigureRunner builds a runner exactly as cmd/experiments does with no
// flags but -n: parallel, one worker per core, profiles at n/4, cold
// start. onRunDone (nil in golden runs) counts finished cells.
func newFigureRunner(ctx context.Context, o Options, onRunDone func(string)) *exp.Runner {
	opts := exp.DefaultOptions()
	opts.Insts = o.Budget.FigInsts
	opts.ProfileInsts = o.Budget.FigInsts / 4
	opts.Parallel = true
	opts.Context = ctx
	opts.OnRunDone = onRunDone
	return exp.NewRunner(opts)
}

type figureResult struct {
	digests  map[string]string  // driver -> digest of its rendered output
	seconds  map[string]float64 // driver -> wall time
	speedups map[string]float64 // fig6/fig8 -> drvp_all_dead_lv average
	errs     []error
}

// check counts the repetition's drivers as attempted and fails each
// driver error and each output that differs from want.
func (res figureResult) check(rep *Report, want map[string]string) {
	rep.Attempted += len(figureDrivers)
	for _, e := range res.errs {
		rep.fail("figures: %v", e)
	}
	checkGolden(rep, "figures", want, res.digests)
}

// figureRep runs every driver once on r, in order (nil: declaration
// order), one span per driver under parent.
func figureRep(r *exp.Runner, order []int, tr *obs.Tracer, parent obs.SpanContext) figureResult {
	if order == nil {
		order = make([]int, len(figureDrivers))
		for i := range order {
			order[i] = i
		}
	}
	res := figureResult{digests: map[string]string{}, seconds: map[string]float64{}, speedups: map[string]float64{}}
	for _, i := range order {
		d := figureDrivers[i]
		sp := tr.Start(parent, "exp."+d.key)
		t := time.Now()
		text, tables, err := d.run(r)
		res.seconds[d.key] = time.Since(t).Seconds()
		sp.EndErr(err)
		res.digests[d.key] = digest(text)
		if err != nil {
			res.errs = append(res.errs, fmt.Errorf("%s: %w", d.key, err))
		}
		if _, ok := paperSpeedup[d.key]; ok && len(tables) == 1 && tables[0] != nil {
			if v, ok := tables[0].Row("drvp_all_dead_lv")["average"]; ok {
				res.speedups[d.key] = v
			}
		}
	}
	return res
}

// figures regenerates every figure and table, as cmd/experiments does by
// default, once per repetition with a fresh exp.Runner.
type figures struct {
	o      Options
	runner *exp.Runner // the first repetition's, built during set-up
	cells  atomic.Int64
}

func setupFigures(ctx context.Context, o Options) (session, error) {
	s := &figures{o: o}
	s.runner = newFigureRunner(ctx, o, s.countCell)
	return s, nil
}

func (s *figures) countCell(string) { s.cells.Add(1) }

func (s *figures) close() error { return s.runner.Close() }

// run repeats the whole set, drivers in seed-permuted order, until the
// window is used. minsts_per_s is the median over repetitions of simulated
// cells x budget / wall; the operation is one repetition, so op_p50_ms is
// experiments' regeneration time.
func (s *figures) run(ctx context.Context, rep *Report) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	want := g.Figures[budgetKey(s.o.Budget.FigInsts)]
	rng := rand.New(rand.NewSource(s.o.Seed))
	var walls, rates []float64
	alloc0 := totalAlloc()
	start := time.Now()
	for len(walls) == 0 || another(start, s.o.Seconds, walls) {
		r := s.runner
		if len(walls) > 0 {
			r = newFigureRunner(ctx, s.o, s.countCell)
		}
		s.cells.Store(0)
		t := time.Now()
		res := figureRep(r, rng.Perm(len(figureDrivers)), nil, obs.SpanContext{})
		wall := time.Since(t).Seconds()
		if err := r.Close(); err != nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		res.check(rep, want)
		if len(walls) == 0 {
			for _, k := range []string{"fig6", "fig8"} {
				rep.note("model.%s_speedup %.3f (paper %.2f; the model is unvalidated against hardware, its workloads are synthetic, so no error figure is given)",
					k, res.speedups[k], paperSpeedup[k])
			}
		}
		walls = append(walls, wall)
		rates = append(rates, float64(s.cells.Load())*float64(s.o.Budget.FigInsts)/wall/1e6)
	}
	rep.measured(alloc0, len(walls))
	rep.set("minsts_per_s", "Minst/s", median(rates), rates)
	msWalls := make([]float64, len(walls))
	for i, w := range walls {
		msWalls[i] = w * 1000
	}
	rep.latencies(msWalls)
	return nil
}
