package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rvpsim/internal/bpred"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/workloads"
)

// step is one committed instruction of a recorded stream: what the layer
// replays need beyond the static instruction. FetchAt and IssueAt come
// from a Sim.SetTracer run; the rest from the emulator.
type step struct {
	fetchAt, issueAt int64
	ea               uint64
	oldDest, newDest uint64
	idx, next        int32
	flags            uint8
}

const (
	stepMem = 1 << iota
	stepCTI
	stepTaken
	stepWrote
)

// layerReps is how many times each layer measurement repeats per
// workload; the median is kept.
const layerReps = 3

// simLayer is one workload's per-layer cost, in ns per committed
// instruction (calls per instruction for the *Calls fields).
type simLayer struct {
	pipeline, observed, traced float64
	emu, mem, bpred, loop      float64
	memCalls, bpredCalls       float64
	core                       map[string]float64
	allocBytes, insts          uint64
}

// simLayers attributes the hot simulator's time per instruction to its
// layers. For each workload it times bare Sim.Run under rvp, the same with
// an observer and with a no-op tracer, then records the committed stream
// once and replays it through each layer's public calls in the order the
// pipeline makes them: emu.State.StepInto, the memory hierarchy, the
// branch predictor, and each predictor's Decide+Commit. Replay rows have
// the empty replay loop subtracted; the pipeline's own bookkeeping is
// what remains after subtracting every layer from the bare run.
//
// The mem and bpred replays must reproduce the traced run's cache and
// branch statistics exactly, and the rvp replay its prediction counts;
// otherwise they replayed a different call stream and the run fails.
func simLayers(ctx context.Context, o Options, parent obs.SpanContext, rep *Report) error {
	recs := make([]step, 0, o.Budget.SimInsts)
	var layers []simLayer
	for _, wl := range workloads.Names() {
		prog, err := workloads.ByName(wl)
		if err != nil {
			return err
		}
		sp := o.Tracer.Start(parent, "sim."+wl)
		l, err := simLayerOf(ctx, o, sp.Context(), prog, &recs)
		sp.EndErr(err)
		rep.Attempted++
		if err != nil {
			return fmt.Errorf("%s: %w", wl, err)
		}
		layers = append(layers, l)
	}

	// set records the median over workloads, keeping all nine as samples.
	set := func(name, unit string, f func(simLayer) float64) float64 {
		xs := make([]float64, len(layers))
		for i, l := range layers {
			xs[i] = f(l)
		}
		v := median(xs)
		rep.set(name, unit, v, xs)
		return v
	}
	pipe := set("pipeline.ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.pipeline })
	em := set("emu.ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.emu })
	mm := set("mem.ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.mem - l.loop })
	bp := set("bpred.ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.bpred - l.loop })
	set("mem.calls_per_inst", "calls/inst", func(l simLayer) float64 { return l.memCalls })
	set("bpred.calls_per_inst", "calls/inst", func(l simLayer) float64 { return l.bpredCalls })
	set("replay.loop_ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.loop })
	set("obs.ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.observed - l.pipeline })
	set("pipeline.tracer_ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.traced - l.pipeline })
	var cr float64
	for _, p := range corePredictors {
		name := p.name
		v := set("core."+name+".ns_per_inst", "ns/inst", func(l simLayer) float64 { return l.core[name] - l.loop })
		if name == "rvp" {
			cr = v
		}
	}
	self := pipe - em - mm - bp - cr
	rep.set("pipeline.self_ns_per_inst", "ns/inst", self, nil)
	for name, v := range map[string]float64{"emu": em, "mem": mm, "bpred": bp, "core": cr, "pipeline.self": self} {
		rep.set(name+".share", "ratio", v/pipe, nil)
	}
	if self < 0 {
		rep.fail("pipeline.self_ns_per_inst is %.1f: the replays cost more than the whole pipeline, so the ledger does not add up", self)
	}
	var alloc, insts uint64
	for _, l := range layers {
		alloc += l.allocBytes
		insts += l.insts
	}
	rep.set("pipeline.alloc_bytes_per_kinst", "B/kinst", float64(alloc)/(float64(insts)/1000), nil)
	return nil
}

// corePredictors are the predictors whose Decide+Commit the ledger
// replays: the paper's RVP, its two baselines, and the two extensions.
var corePredictors = simPredictors[1:]

func simLayerOf(ctx context.Context, o Options, parent obs.SpanContext, prog *program.Program, recs *[]step) (simLayer, error) {
	n := o.Budget.SimInsts
	cfg := pipeline.BaselineConfig()
	sim, err := pipeline.New(cfg)
	if err != nil {
		return simLayer{}, err
	}
	rvp := corePredictors[0].mk()
	var st pipeline.Stats
	runSim := func() error {
		var err error
		st, err = sim.RunContext(ctx, prog, rvp, n)
		return err
	}
	if err := runSim(); err != nil { // warm-up: allocates the Sim's run state
		return simLayer{}, err
	}
	insts := int(st.Committed)
	l := simLayer{core: map[string]float64{}}
	time1 := func(name string, prep func() error, body func() error) (float64, error) {
		return nsPerInst(o.Tracer, parent, name, insts, layerReps, prep, body)
	}
	noPrep := func() error { return nil }

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := runSim(); err != nil {
		return l, err
	}
	runtime.ReadMemStats(&m1)
	l.allocBytes, l.insts = m1.TotalAlloc-m0.TotalAlloc, st.Committed

	// The bare, observed and traced runs alternate, so that a drift in
	// the machine's speed shifts all three alike and their differences
	// (the observer's and the tracer's cost) stay meaningful.
	observer := obs.NewObserver()
	noTrace := func(pipeline.TraceRecord) {}
	variants := []struct {
		name   string
		ob     *obs.Observer
		tracer pipeline.Tracer
		out    *float64
	}{
		{"pipeline", nil, nil, &l.pipeline},
		{"pipeline+observer", observer, nil, &l.observed},
		{"pipeline+tracer", nil, noTrace, &l.traced},
	}
	samples := make([][]float64, len(variants))
	for rep := 0; rep < layerReps; rep++ {
		for i, v := range variants {
			sim.SetObserver(v.ob)
			sim.SetTracer(v.tracer)
			ns, err := nsPerInst(o.Tracer, parent, v.name, insts, 1, noPrep, runSim)
			if err != nil {
				return l, err
			}
			samples[i] = append(samples[i], ns)
		}
	}
	sim.SetObserver(nil)
	for i, v := range variants {
		*v.out = median(samples[i])
	}

	// Record the committed stream: timing from the tracer, the rest from
	// a second emulator run over the same program.
	*recs = (*recs)[:0]
	sim.SetTracer(func(t pipeline.TraceRecord) {
		*recs = append(*recs, step{fetchAt: t.FetchAt, issueAt: t.IssueAt, idx: int32(t.Index)})
	})
	err = runSim()
	sim.SetTracer(nil)
	if err != nil {
		return l, err
	}
	rs := *recs
	es, err := emu.New(prog)
	if err != nil {
		return l, err
	}
	regs0 := es.Regs
	var e emu.Exec
	for i := range rs {
		if !es.StepInto(&e) || e.Index != int(rs[i].idx) {
			return l, fmt.Errorf("emulator stream diverges from the pipeline's at instruction %d", i)
		}
		r := &rs[i]
		r.ea, r.next, r.oldDest, r.newDest = e.EA, int32(e.Next), e.OldDest, e.NewDest
		if e.IsMem {
			r.flags |= stepMem
		}
		if e.IsCTI {
			r.flags |= stepCTI
		}
		if e.Taken {
			r.flags |= stepTaken
		}
		if e.WroteRd {
			r.flags |= stepWrote
		}
	}

	if l.emu, err = time1("emu.StepInto", func() error { es, err = emu.New(prog); return err }, func() error {
		for i := 0; i < len(rs); i++ {
			es.StepInto(&e)
		}
		return nil
	}); err != nil {
		return l, err
	}

	var h *mem.Hierarchy
	calls := 0
	if l.mem, err = time1("mem.replay", func() error { h, err = mem.NewHierarchy(cfg.Mem); return err }, func() error {
		calls = replayMem(prog, rs, h)
		return nil
	}); err != nil {
		return l, err
	}
	l.memCalls = float64(calls) / float64(insts)
	if h.L1D.Hits != st.DL1Hits || h.L1D.Misses != st.DL1Misses || h.L1I.Hits != st.IL1Hits || h.L1I.Misses != st.IL1Misses {
		return l, fmt.Errorf("mem replay diverges: DL1 %d/%d IL1 %d/%d hits/misses, traced run %d/%d %d/%d",
			h.L1D.Hits, h.L1D.Misses, h.L1I.Hits, h.L1I.Misses, st.DL1Hits, st.DL1Misses, st.IL1Hits, st.IL1Misses)
	}

	var bp *bpred.Predictor
	if l.bpred, err = time1("bpred.replay", func() error { bp = bpred.New(cfg.Bpred); return nil }, func() error {
		calls = replayBpred(prog, rs, bp)
		return nil
	}); err != nil {
		return l, err
	}
	l.bpredCalls = float64(calls) / float64(insts)
	if bp.CondSeen != st.CondBranches || bp.CondMispred != st.CondMispredict || bp.TargetMiss+bp.RASWrong != st.TargetMispred {
		return l, fmt.Errorf("bpred replay diverges: %d cond, %d mispredicted, %d target misses; traced run %d, %d, %d",
			bp.CondSeen, bp.CondMispred, bp.TargetMiss+bp.RASWrong, st.CondBranches, st.CondMispredict, st.TargetMispred)
	}

	for _, cp := range corePredictors {
		var p core.Predictor
		var predicted, correct uint64
		v, err := time1("core."+cp.name, func() error {
			p = cp.mk()
			if sh, ok := p.(core.SizeHinter); ok {
				sh.SizeHint(len(prog.Insts))
			}
			return nil
		}, func() error {
			predicted, correct = replayCore(prog, rs, p, regs0)
			return nil
		})
		if err != nil {
			return l, err
		}
		l.core[cp.name] = v
		if cp.name == "rvp" && (predicted != st.Predicted || correct != st.PredictCorrect) {
			return l, fmt.Errorf("rvp replay diverges: %d predicted, %d correct; traced run %d, %d",
				predicted, correct, st.Predicted, st.PredictCorrect)
		}
	}

	// The empty loop walks the stream testing each record's flags, as every
	// replay does; its count doubles as a check on the recorded stream.
	var wrote uint64
	l.loop, err = time1("replay.loop", func() error { wrote = 0; return nil }, func() error {
		for i := range rs {
			if rs[i].flags&stepWrote != 0 {
				wrote++
			}
		}
		return nil
	})
	if err == nil && wrote != st.Eligible {
		err = fmt.Errorf("recorded stream has %d register writes; traced run %d", wrote, st.Eligible)
	}
	return l, err
}

// nsPerInst repeats prep (untimed) and body (timed, one span each) reps
// times and returns the median ns per instruction.
func nsPerInst(tr *obs.Tracer, parent obs.SpanContext, name string, insts, reps int, prep, body func() error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		if err := prep(); err != nil {
			return 0, err
		}
		sp := tr.Start(parent, name)
		t := time.Now()
		err := body()
		d := time.Since(t)
		sp.EndErr(err)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(d.Nanoseconds())/float64(insts))
	}
	return median(xs), nil
}

// replayMem makes the pipeline's memory-hierarchy calls for the stream:
// an instruction fetch whenever the fetch unit re-reads the I-cache (a new
// line, the first fetch after a taken control transfer, or a fetch-cycle
// jump of more than one, which only a redirect causes), then a data
// access at issue for each load and store.
func replayMem(prog *program.Program, rs []step, h *mem.Hierarchy) int {
	calls := 0
	line := ^uint64(0)
	var prevFetch int64
	redirect := true
	for i := range rs {
		r := &rs[i]
		pc := prog.PC(int(r.idx))
		if l := pc &^ 63; l != line || redirect || r.fetchAt-prevFetch > 1 {
			h.AccessInstAt(pc, r.fetchAt)
			calls++
			line = l
		}
		prevFetch = r.fetchAt
		redirect = r.flags&(stepCTI|stepTaken) == stepCTI|stepTaken
		if r.flags&stepMem != 0 {
			h.AccessDataAt(r.ea, r.issueAt)
			calls++
		}
	}
	return calls
}

// replayBpred makes the pipeline's branch-predictor calls for every
// control transfer in the stream, in the order handleCTI makes them.
func replayBpred(prog *program.Program, rs []step, bp *bpred.Predictor) int {
	calls := 0
	for i := range rs {
		r := &rs[i]
		if r.flags&stepCTI == 0 {
			continue
		}
		idx, next, taken := int(r.idx), int(r.next), r.flags&stepTaken != 0
		in := prog.Insts[idx]
		switch {
		case isa.IsCondBranch(in.Op):
			calls += 2
			if !bp.UpdateCond(idx, taken, bp.PredictCond(idx)) || !taken {
				continue
			}
			tgt, ok := bp.PredictTarget(in.Op, idx)
			bp.UpdateTarget(in.Op, idx, next, tgt, ok)
			calls += 2
		case in.Op == isa.BR:
			if in.Rd == isa.RRA {
				bp.OnFetchCall(idx + 1)
				calls++
			}
			tgt, ok := bp.PredictTarget(in.Op, idx)
			bp.UpdateTarget(in.Op, idx, next, tgt, ok)
			calls += 2
		case in.Op == isa.JSR:
			bp.OnFetchCall(idx + 1)
			tgt, ok := bp.PredictTarget(in.Op, idx)
			bp.UpdateTarget(in.Op, idx, next, tgt, ok)
			calls += 3
		case in.Op == isa.RET:
			tgt, ok := bp.PredictTarget(in.Op, idx)
			bp.OnFetchReturn()
			bp.UpdateTarget(in.Op, idx, next, tgt, ok)
			calls += 3
		}
	}
	return calls
}

// replayCore drives p's Decide and Commit for every register-writing
// instruction, resolving the predicted value as the pipeline does: the
// destination's prior value, another register's current value, or the
// value the decision carries. It returns how many predictions were made
// and how many were correct.
func replayCore(prog *program.Program, rs []step, p core.Predictor, regs [isa.NumRegs]uint64) (predicted, correct uint64) {
	for i := range rs {
		r := &rs[i]
		if r.flags&stepWrote == 0 {
			continue
		}
		idx := int(r.idx)
		in := prog.Insts[idx]
		if !in.Rd.IsZero() {
			regs[in.Rd] = r.newDest
		}
		dec := p.Decide(idx, in)
		var v uint64
		switch dec.Kind {
		case core.KindSameReg:
			v = r.oldDest
		case core.KindOtherReg:
			if dec.Reg == in.Rd {
				v = r.oldDest
			} else {
				v = regs[dec.Reg]
			}
		case core.KindLastValue, core.KindBuffer:
			v = dec.Value
		}
		if dec.Predict {
			predicted++
			if v == r.newDest {
				correct++
			}
		}
		p.Commit(idx, in, v, r.newDest)
	}
	return predicted, correct
}
