package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/profile"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/workloads"
)

// Trace is the separate traced run: it measures every layer's per-layer
// metrics, whatever workload asked for them, by timing calls into the
// layers' public functions, with one span (collected by o.Tracer) around
// each call.
func Trace(ctx context.Context, o Options) (*Report, error) {
	rep := newReport("trace")
	sections := []struct {
		name string
		run  func(context.Context, Options, obs.SpanContext, *Report) error
	}{
		{"sim", simLayers},
		{"figures", figureLayers},
		{"compiler", compilerLayers},
		{"serve", serveLayers},
		{"fleet", fleetLayers},
	}
	for _, s := range sections {
		sp := o.Tracer.Start(obs.SpanContext{}, "section."+s.name)
		err := s.run(ctx, o, sp.Context(), rep)
		sp.EndErr(err)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", s.name, err)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// figureLayers times one repetition of every figure driver on a fresh
// runner, counting simulation cells through Options.OnRunDone, and reads
// the model's headline speedups off Figures 6 and 8. cpu_util is the
// process's CPU time over wall time x GOMAXPROCS: idle cores in the
// drivers' sweep tails show as a lower value.
func figureLayers(ctx context.Context, o Options, parent obs.SpanContext, rep *Report) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	var cells atomic.Int64
	r := newFigureRunner(ctx, o, func(string) { cells.Add(1) })
	cpu0 := cpuSeconds()
	start := time.Now()
	res := figureRep(r, nil, o.Tracer, parent)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	if err := r.Close(); err != nil {
		return err
	}
	res.check(rep, g.Figures[budgetKey(o.Budget.FigInsts)])
	for k, s := range res.seconds {
		if k != "tab1" { // rendering a constant table; nothing to time
			rep.set("exp."+k+"_s", "s", s, nil)
		}
	}
	rep.set("exp.cells", "count", float64(cells.Load()), nil)
	rep.set("exp.cells_per_s", "1/s", float64(cells.Load())/wall, nil)
	rep.set("exp.cpu_util", "ratio", cpu/(wall*float64(runtime.GOMAXPROCS(0))), nil)
	for k, v := range res.speedups {
		rep.set("model."+k+"_speedup", "x", v, nil)
	}
	return nil
}

// compilerLayers times the profiler over the nine workloads at the
// figures' profile budget, and the register re-allocator on Figure 7's
// workloads, as the figure drivers call them.
func compilerLayers(ctx context.Context, o Options, parent obs.SpanContext, rep *Report) error {
	profiles := map[string]*profile.Profile{}
	var prof, realloc time.Duration
	for _, wl := range workloads.Names() {
		prog, err := workloads.ByName(wl)
		if err != nil {
			return err
		}
		sp := o.Tracer.Start(parent, "profile."+wl)
		start := time.Now()
		pr, err := profile.Run(prog, profile.Options{MaxInsts: o.Budget.FigInsts / 4})
		prof += time.Since(start)
		sp.EndErr(err)
		if err != nil {
			return err
		}
		profiles[wl] = pr
	}
	for _, wl := range exp.Figure7Workloads {
		prog, err := workloads.ByName(wl)
		if err != nil {
			return err
		}
		pr := profiles[wl]
		lists := pr.Lists(exp.DefaultOptions().Threshold, false, 0)
		sp := o.Tracer.Start(parent, "regalloc."+wl)
		start := time.Now()
		_, err = regalloc.Reallocate(prog, pr, lists)
		realloc += time.Since(start)
		sp.EndErr(err)
		if err != nil {
			return err
		}
	}
	rep.Attempted++
	rep.set("profile.s", "s", prof.Seconds(), nil)
	rep.set("regalloc.s", "s", realloc.Seconds(), nil)
	return ctx.Err()
}

// serveLayers runs the serve workload's closed loop traced, for a quarter
// of the window: long enough for several hundred jobs, short enough that
// the daemon's bounded span buffer keeps every job's spans.
func serveLayers(ctx context.Context, o Options, _ obs.SpanContext, rep *Report) error {
	s, err := setupServe(ctx, o)
	if err != nil {
		return err
	}
	err = s.(*serve).traced(ctx, rep, time.Duration(o.Seconds*float64(time.Second)/4))
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// fleetLayers runs the fleet workload's sweep traced.
func fleetLayers(ctx context.Context, o Options, _ obs.SpanContext, rep *Report) error {
	s, err := setupFleet(ctx, o)
	if err != nil {
		return err
	}
	err = s.(*fleetSweep).traced(ctx, rep)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}
