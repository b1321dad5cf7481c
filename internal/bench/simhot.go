package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// simPredictors are sim-hot's predictors, built as the job API builds
// them. The pipeline devirtualizes none, rvp, lvp_all and gabbay; stride
// and context go through the core.Predictor interface, so the workload
// exercises both dispatch styles.
var simPredictors = []struct {
	name string
	mk   func() core.Predictor
}{
	{"none", func() core.Predictor { return core.NoPredictor{} }},
	{"rvp", func() core.Predictor { return core.MustDynamicRVP(core.DefaultCounterConfig()) }},
	{"lvp_all", func() core.Predictor { return core.MustLVP(core.DefaultLVPConfig(), "lvp_all") }},
	{"gabbay", func() core.Predictor { return core.MustGabbayRVP(core.DefaultCounterConfig(), false) }},
	{"stride", func() core.Predictor { return core.MustStridePredictor(core.DefaultStrideConfig()) }},
	{"context", func() core.Predictor { return core.MustContextPredictor(core.DefaultContextConfig()) }},
}

type simCell struct {
	label string // "workload/predictor"
	prog  *program.Program
	pred  core.Predictor
}

// simHot is one goroutine reusing one baseline-config Sim across the
// 9 workloads x 6 predictors matrix. It bypasses exp, profile, regalloc,
// the server, the WALs and the fleet.
type simHot struct {
	o     Options
	sim   *pipeline.Sim
	cells []simCell
}

func setupSimHot(_ context.Context, o Options) (session, error) {
	sim, err := pipeline.New(pipeline.BaselineConfig())
	if err != nil {
		return nil, err
	}
	s := &simHot{o: o, sim: sim}
	for _, wl := range workloads.Names() {
		prog, err := workloads.ByName(wl)
		if err != nil {
			return nil, err
		}
		for _, p := range simPredictors {
			s.cells = append(s.cells, simCell{label: wl + "/" + p.name, prog: prog, pred: p.mk()})
		}
	}
	return s, nil
}

func (s *simHot) close() error { return nil }

type passResult struct {
	digests   map[string]string // cell -> digest of Stats.String()
	errs      map[string]error
	cellMS    map[string]float64 // cell -> CPU time of the simulating thread
	committed map[string]uint64  // cell -> committed instructions
	wall      time.Duration
}

// pass runs every cell once, in order (nil: declaration order), on one OS
// thread, and times each cell by that thread's CPU time: the simulation is
// single-threaded and CPU-bound, so its cost is the CPU time it takes, and
// time spent waiting for a CPU while another process ran is left out.
func (s *simHot) pass(ctx context.Context, order []int) (passResult, error) {
	if order == nil {
		order = make([]int, len(s.cells))
		for i := range order {
			order[i] = i
		}
	}
	res := passResult{digests: map[string]string{}, errs: map[string]error{},
		cellMS: map[string]float64{}, committed: map[string]uint64{}}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for _, i := range order {
		c := s.cells[i]
		cpu := threadCPUSeconds()
		st, err := s.sim.RunContext(ctx, c.prog, c.pred, s.o.Budget.SimInsts)
		cpu = threadCPUSeconds() - cpu
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if err != nil {
			res.errs[c.label] = err
			continue
		}
		res.cellMS[c.label] = cpu * 1000
		res.committed[c.label] = st.Committed
		res.digests[c.label] = digest(st.String())
	}
	res.wall = time.Since(start)
	return res, nil
}

// run makes one untimed warm pass, checked against the golden digests,
// then timed passes in seed-permuted cell order until the window is used.
// Every timed pass must reproduce the warm pass cell for cell.
//
// Each cell's time is its median CPU time over the timed passes, so a
// pass that a burst of other load on the machine slowed does not move the
// result. minsts_per_s is every cell's committed instructions over the sum
// of those medians: the throughput of a typical pass. op_p50_ms and
// op_tail_ms are the median and p90 of the per-cell medians. The record
// keeps each pass's own rate as the samples.
func (s *simHot) run(ctx context.Context, rep *Report) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	warm, err := s.pass(ctx, nil)
	if err != nil {
		return err
	}
	rep.Attempted += len(s.cells)
	for label, e := range warm.errs {
		rep.fail("%s: %v", label, e)
	}
	checkGolden(rep, "sim-hot", g.SimHot[budgetKey(s.o.Budget.SimInsts)], warm.digests)

	rng := rand.New(rand.NewSource(s.o.Seed))
	var rates, passS []float64
	times := map[string][]float64{}
	alloc0 := totalAlloc()
	start := time.Now()
	for len(passS) == 0 || another(start, s.o.Seconds, passS) {
		p, err := s.pass(ctx, rng.Perm(len(s.cells)))
		if err != nil {
			return err
		}
		rep.Attempted += len(s.cells)
		for label, e := range p.errs {
			rep.fail("%s: %v", label, e)
		}
		var committed uint64
		var passMS float64
		for label, d := range p.digests {
			if d != warm.digests[label] {
				rep.fail("%s: pass %d differs from the warm pass", label, len(passS)+1)
			}
			times[label] = append(times[label], p.cellMS[label])
			committed += p.committed[label]
			passMS += p.cellMS[label]
		}
		passS = append(passS, p.wall.Seconds())
		rates = append(rates, float64(committed)/(passMS/1000)/1e6)
	}
	rep.measured(alloc0, len(s.cells)*len(passS))
	var cellMS []float64
	var sumMS float64
	var insts uint64
	for label, ts := range times {
		m := median(ts)
		cellMS = append(cellMS, m)
		sumMS += m
		insts += warm.committed[label]
	}
	if len(cellMS) == 0 {
		return fmt.Errorf("sim-hot: no cell completed")
	}
	rep.set("minsts_per_s", "Minst/s", float64(insts)/(sumMS/1000)/1e6, rates)
	rep.latencies(cellMS)
	return nil
}
