package pipeline

import (
	"context"
	"fmt"

	"rvpsim/internal/bpred"
	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/obs"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// seqBook is the bandwidth book of an in-order stage: dispatch, commit
// and the predict ports (booked at the dispatch cycle). No booking falls
// below the last booked cycle, so the book is exact as that cycle and
// the count booked there.
type seqBook struct {
	last  int64
	n     uint64
	limit uint64
}

// bookFrom books the earliest cycle at or after both t and the last
// booking that has a free slot, and returns it.
func (b *seqBook) bookFrom(t int64) int64 {
	switch {
	case t > b.last:
		b.last, b.n = t, 1
	case b.n < b.limit:
		b.n++
	default:
		b.last++
		b.n = 1
	}
	return b.last
}

// tryBook books cycle t, which must not be below the last booking, if it
// has a free slot.
func (b *seqBook) tryBook(t int64) bool {
	switch {
	case t > b.last:
		b.last, b.n = t, 1
	case b.n < b.limit:
		b.n++
	default:
		return false
	}
	return true
}

// issueBook is the bandwidth book of the out-of-order stages: the issue
// slots and the int, load/store and FP units. It is one lazily cleared,
// cycle-indexed ring of slots; cycle t maps to slot t&(len(slot)-1), and
// each slot holds the cycle it books (its stamp) and the four counts
// booked there, so one index probes and books every stage an
// instruction needs. Cycles are nonnegative; Config.Validate bounds
// every limit below 2^16.
//
// The ring is exact. No probe or booking by the current instruction or
// any later one falls below the current dispatch cycle, and the loop
// grows the ring (grow) before it books a cycle one ring length or more
// past that cycle. Every live slot therefore lies within one ring length
// of the dispatch cycle, a live slot is never overwritten, and a stamp
// mismatch means "nothing booked here".
type issueBook struct {
	slot  []issueSlot
	limit [numBooks]uint16
}

// issueSlot is one cycle of the issue book. It packs into 16 bytes.
type issueSlot struct {
	stamp int64
	n     [numBooks]uint16
}

// The stages an issueBook counts, indexing issueSlot.n and limit.
const (
	bookIssue = iota
	bookInt
	bookLS
	bookFP
	numBooks
)

// issueRingStart is the length, in cycles, the issue book starts at. It
// doubles only when an issue lands a full ring length past its dispatch;
// no sim-hot run at 1M instructions needs more than 512.
const issueRingStart = 1 << 10

func newIssueBook(cfg Config) issueBook {
	return issueBook{
		slot: make([]issueSlot, issueRingStart),
		limit: [numBooks]uint16{
			bookIssue: uint16(cfg.IssueWidth),
			bookInt:   uint16(cfg.IntALUs),
			bookLS:    uint16(cfg.LoadStore),
			bookFP:    uint16(cfg.FPUnits),
		},
	}
}

// avail reports whether cycle t has a free issue slot, a free unit of
// book unit (bookInt or bookFP) and, for a memory operation, a free
// load/store port.
func (b *issueBook) avail(t int64, unit int, isMem bool) bool {
	s := &b.slot[t&int64(len(b.slot)-1)]
	if s.stamp != t {
		return true
	}
	return s.n[bookIssue] < b.limit[bookIssue] && s.n[unit] < b.limit[unit] &&
		(!isMem || s.n[bookLS] < b.limit[bookLS])
}

// book takes what avail checked at cycle t.
func (b *issueBook) book(t int64, unit int, isMem bool) {
	s := &b.slot[t&int64(len(b.slot)-1)]
	if s.stamp != t {
		*s = issueSlot{stamp: t}
	}
	s.n[bookIssue]++
	s.n[unit]++
	if isMem {
		s.n[bookLS]++
	}
}

// grow doubles the ring until cycle t lies less than one ring length
// past floor, the current dispatch cycle, keeping the slots stamped at
// or after floor. Slots stamped before it are dead: nothing probes them.
func (b *issueBook) grow(floor, t int64) {
	n := len(b.slot)
	for int64(n) <= t-floor {
		n *= 2
	}
	old := b.slot
	b.slot = make([]issueSlot, n)
	for _, s := range old {
		if s.n[bookIssue] != 0 && s.stamp >= floor {
			b.slot[s.stamp&int64(n-1)] = s
		}
	}
}

// reset empties the book for a new run. It must be cleared, not merely
// reused: a stale stamp from the prior run would alias a cycle of this
// one. A ring an earlier run grew goes back to the starting length.
func (b *issueBook) reset() {
	if len(b.slot) == issueRingStart {
		clear(b.slot)
	} else {
		b.slot = make([]issueSlot, issueRingStart)
	}
}

// pendingPred tracks one in-flight value prediction for recovery
// bookkeeping. Instances are pooled per run: refs counts the live
// references (a regPending slot and, under reissue, an activePreds
// entry); when it drops to zero the record returns to the run's free
// list instead of the garbage collector.
type pendingPred struct {
	verifyAt int64
	doneAt   int64
	wrong    bool
	useSeen  bool
	refs     int32
}

// instInfo is the per-static-instruction decode information the commit
// loop needs every iteration. It is computed once per run (newRunState)
// so the loop never re-derives classification, latency, or source
// registers from the opcode. srcs leaves out the zero registers: they
// are always ready and never predicted, so no source loop need test
// for them.
type instInfo struct {
	srcs   [2]isa.Reg
	lat    int64
	cls    isa.Class
	nsrc   uint8
	useFPQ bool
	isMem  bool
}

// FaultInjector perturbs a run for robustness testing (see
// internal/faultinject). All hooks run on the simulation goroutine; an
// injector must not be shared between concurrent Sims.
type FaultInjector interface {
	// MemLatency may stretch (or shorten) one data-access latency.
	MemLatency(addr uint64, now int64, lat int) int
	// FlipPredict reports whether to invert this instruction's
	// predict/don't-predict decision (confidence-counter bit flip).
	FlipPredict(idx int) bool
	// CheckPoint runs once per commit batch; a non-nil error aborts the
	// run, and a panic propagates to the caller (exercising the
	// experiment runner's recovery path).
	CheckPoint(committed uint64, cycle int64) error
}

// runState is the complete per-run mutable simulation state: the oracle
// emulator, statistics, per-register and per-instruction timing, queue
// occupancy, bandwidth books, and front-end position. Keeping it in one
// struct (rather than locals of the run loop) is what lets a pooled Sim
// recycle it from run to run (resetRunState).
type runState struct {
	prog *program.Program
	pred core.Predictor
	st   *emu.State

	// Per-static-instruction decode table (see instInfo).
	info []instInfo

	// pendingPred free list (see pendingPred.refs).
	predFree []*pendingPred

	stats Stats

	// Per-register timing state.
	regReady   [isa.NumRegs]int64 // when the latest value is available
	specUntil  [isa.NumRegs]int64 // selective-reissue taint: latest verify time
	regPending [isa.NumRegs]*pendingPred

	// Per-static-instruction readiness of the previous result (for
	// KindLastValue prediction sources). Like regReady for same-register
	// sources, it collapses while the value repeats: a re-allocated
	// register would have held the (identical) value since the oldest
	// instance of the run, so consumers need not wait for the newest.
	lvReady []int64
	lvLast  []uint64

	// Queue occupancy rings: release time of the instruction N-slots back.
	intIQ  []int64
	fpIQ   []int64
	window []int64
	intN   uint64
	fpN    uint64
	winN   uint64
	// Ring cursors: intN % len(intIQ) etc., maintained incrementally so
	// the commit loop never does a 64-bit modulo.
	intIdx int
	fpIdx  int
	winIdx int

	// Bandwidth books. The in-order books' last cycles are the last
	// dispatch and commit cycles.
	dispatchCap seqBook
	commitCap   seqBook
	portCap     seqBook // unused unless cfg.PredictPorts > 0
	issue       issueBook

	// Front-end state.
	fetchCycle  int64
	minFetch    int64
	fetchSlots  int
	fetchBlocks int
	curLine     uint64

	lastCycle   int64
	activePreds []*pendingPred

	lastProg uint64 // stats.Committed at the last progress callback
}

// Sim is the timing simulator. One Sim runs one program; allocate a new
// Sim (or call Run again, which resets state) per measurement.
type Sim struct {
	cfg    Config
	hier   *mem.Hierarchy
	bp     *bpred.Predictor
	tracer Tracer
	obs    *obs.Observer
	faults FaultInjector

	cur       *runState // state of the current / most recent run
	progEvery uint64
	progFn    func(committed uint64, cycles int64)
}

// SetTracer installs a per-instruction trace callback (nil disables).
func (s *Sim) SetTracer(t Tracer) { s.tracer = t }

// SetFaults installs a fault injector (nil disables).
func (s *Sim) SetFaults(f FaultInjector) { s.faults = f }

// SetObserver attaches a metrics observer (nil disables). With an
// observer attached, each Run adds its final Stats and the memory,
// branch and value-predictor counters to the observer's registry once,
// when it ends; nothing is published per commit. A run that panics
// publishes nothing. Per-commit records go to the tracer (SetTracer).
func (s *Sim) SetObserver(o *obs.Observer) { s.obs = o }

// SetProgress arms a periodic progress callback: fn receives the run's
// committed-instruction count and current cycle at the first
// commit-batch boundary after each further `every` committed
// instructions. fn runs on the simulation goroutine between committed
// instructions, where the emulator state handed to RunFromContext is at
// an instruction boundary; fn must only read, so arming progress cannot
// change the committed instruction/value stream. It feeds the service's
// job progress events and lockstep's periodic architectural-state check.
// every == 0 or fn == nil disables.
func (s *Sim) SetProgress(every uint64, fn func(committed uint64, cycles int64)) {
	s.progEvery, s.progFn = every, fn
}

// New builds a simulator for the configuration.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg}, nil
}

// MustNew is New, panicking on config errors.
func MustNew(cfg Config) *Sim {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// commitBatch is how many committed instructions pass between
// cancellation / fault-checkpoint polls. It bounds how much work a
// canceled context can still charge: one batch.
const commitBatch = 1024

// newRunState builds the zeroed timing state for a fresh run. When this
// Sim has run before, the previous run's state is recycled in place (see
// resetRunState) instead of reallocated: N simulators each reallocating
// their per-instruction tables and queues per run serialize in the
// allocator long before they saturate N cores.
func (s *Sim) newRunState(prog *program.Program, pred core.Predictor, st *emu.State) *runState {
	if r := s.cur; r != nil {
		s.resetRunState(r, prog, pred, st)
		return r
	}
	cfg := s.cfg
	r := &runState{
		prog:        prog,
		pred:        pred,
		st:          st,
		lvReady:     make([]int64, len(prog.Insts)),
		lvLast:      make([]uint64, len(prog.Insts)),
		intIQ:       make([]int64, cfg.IntIQ),
		fpIQ:        make([]int64, cfg.FPIQ),
		window:      make([]int64, cfg.Window),
		dispatchCap: seqBook{limit: uint64(cfg.DispatchWidth)},
		commitCap:   seqBook{limit: uint64(cfg.CommitWidth)},
		portCap:     seqBook{limit: uint64(cfg.PredictPorts)},
		issue:       newIssueBook(cfg),
		curLine:     ^uint64(0),
	}
	r.info = buildInfo(prog)
	sizeHint(pred, len(r.info))
	return r
}

// resetRunState recycles the previous run's buffers for a fresh run on
// the same Sim: rings, queues, and dense per-instruction tables are
// cleared in place, the pendingPred pool carries over (a per-worker
// pool, never shared between Sims), and the decode table survives when
// the program is the same. The result is indistinguishable from a
// freshly allocated runState — TestSimReuseDeterminism proves a reused
// Sim commits the byte-identical stream as a fresh one.
func (s *Sim) resetRunState(r *runState, prog *program.Program, pred core.Predictor, st *emu.State) {
	// Return every live prediction record to the free list. Refcounts are
	// exact (a regPending slot and, under reissue, an activePreds entry),
	// so each record lands in the pool exactly once.
	for _, p := range r.activePreds {
		r.release(p)
	}
	r.activePreds = r.activePreds[:0]
	for i, p := range r.regPending {
		if p != nil {
			r.release(p)
			r.regPending[i] = nil
		}
	}

	if r.prog != prog {
		r.lvReady = make([]int64, len(prog.Insts))
		r.lvLast = make([]uint64, len(prog.Insts))
		r.info = buildInfo(prog)
	} else {
		clear(r.lvReady)
		clear(r.lvLast)
	}
	r.prog, r.pred, r.st = prog, pred, st

	clear(r.intIQ)
	clear(r.fpIQ)
	clear(r.window)
	r.intN, r.fpN, r.winN = 0, 0, 0
	r.intIdx, r.fpIdx, r.winIdx = 0, 0, 0

	r.dispatchCap.last, r.dispatchCap.n = 0, 0
	r.commitCap.last, r.commitCap.n = 0, 0
	r.portCap.last, r.portCap.n = 0, 0
	r.issue.reset()

	r.stats = Stats{}
	r.regReady = [isa.NumRegs]int64{}
	r.specUntil = [isa.NumRegs]int64{}
	r.fetchCycle, r.minFetch = 0, 0
	r.fetchSlots, r.fetchBlocks = 0, 0
	r.curLine = ^uint64(0)
	r.lastCycle = 0
	r.lastProg = 0
	sizeHint(pred, len(r.info))
}

// buildInfo decodes every static instruction once; the loop indexes this
// table instead of re-deriving class/latency/sources per commit.
func buildInfo(prog *program.Program) []instInfo {
	info := make([]instInfo, len(prog.Insts))
	for i, in := range prog.Insts {
		cls := isa.Classify(in.Op)
		inf := instInfo{
			cls:    cls,
			lat:    int64(cls.Latency()),
			useFPQ: cls == isa.ClassFPAdd || cls == isa.ClassFPMul || cls == isa.ClassFPDiv,
			isMem:  cls == isa.ClassLoad || cls == isa.ClassStore,
		}
		for _, reg := range in.Sources(inf.srcs[:0]) {
			if !reg.IsZero() {
				inf.srcs[inf.nsrc] = reg
				inf.nsrc++
			}
		}
		info[i] = inf
	}
	return info
}

// sizeHint pre-sizes per-static-instruction predictor state so the
// commit path never grows a slice mid-run.
func sizeHint(pred core.Predictor, n int) {
	if sh, ok := pred.(core.SizeHinter); ok {
		sh.SizeHint(n)
	}
}

// newPending takes a record from the free list (or allocates during
// warm-up, before the pool has grown to the run's in-flight high-water
// mark). The caller owns the first reference via retain.
func (r *runState) newPending(verifyAt, doneAt int64, wrong bool) *pendingPred {
	if n := len(r.predFree); n > 0 {
		p := r.predFree[n-1]
		r.predFree = r.predFree[:n-1]
		*p = pendingPred{verifyAt: verifyAt, doneAt: doneAt, wrong: wrong}
		return p
	}
	return &pendingPred{verifyAt: verifyAt, doneAt: doneAt, wrong: wrong}
}

func (r *runState) retain(p *pendingPred) { p.refs++ }

// release drops one reference, returning the record to the pool when no
// regPending slot or activePreds entry still points at it.
func (r *runState) release(p *pendingPred) {
	p.refs--
	if p.refs == 0 {
		r.predFree = append(r.predFree, p)
	}
}

// Run simulates prog under value predictor pred for at most maxInsts
// committed instructions (0 = until HALT) and returns the statistics.
func (s *Sim) Run(prog *program.Program, pred core.Predictor, maxInsts uint64) (Stats, error) {
	return s.RunContext(context.Background(), prog, pred, maxInsts)
}

// RunContext is Run honoring ctx: cancellation and deadlines are observed
// at commit-batch granularity (the run stops within one batch of the
// context ending, returning coherent partial Stats and an error wrapping
// ctx.Err()). When cfg.WatchdogCycles > 0, a forward-progress watchdog
// additionally aborts with an error wrapping simerr.ErrNoProgress if no
// instruction commits for more than that many simulated cycles.
func (s *Sim) RunContext(ctx context.Context, prog *program.Program, pred core.Predictor, maxInsts uint64) (Stats, error) {
	st, err := emu.New(prog)
	if err != nil {
		return Stats{}, simerr.New("emu", err)
	}
	return s.RunFromContext(ctx, st, pred, maxInsts)
}

// RunFromContext is RunContext starting from the architectural state st
// of program st.Prog, for example one restored from a snapshot taken
// after a functional warmup on the emulator. Registers, memory and PC
// begin at st; every microarchitectural structure (caches, TLBs, branch
// and value predictors, timing state) starts cold, exactly as in a run
// from the program's entry. maxInsts bounds the instructions committed
// from st on: Stats.Committed starts at 0. The run takes st over.
func (s *Sim) RunFromContext(ctx context.Context, st *emu.State, pred core.Predictor, maxInsts uint64) (Stats, error) {
	if err := s.startRun(pred); err != nil {
		return Stats{}, err
	}
	r := s.newRunState(st.Prog, pred, st)
	s.cur = r
	return s.loop(ctx, r, maxInsts)
}

// startRun (re)builds the per-run microarchitectural subsystems. The
// memory hierarchy and branch predictor are allocated once per Sim and
// reset between runs: their geometry is fixed by the config, and reuse
// keeps N parallel simulators from reallocating ~100KB of tag arrays
// per run.
func (s *Sim) startRun(pred core.Predictor) error {
	if s.hier == nil {
		h, err := mem.NewHierarchy(s.cfg.Mem)
		if err != nil {
			return simerr.New("mem", err)
		}
		s.hier = h
	} else {
		s.hier.Reset()
	}
	if s.bp == nil {
		s.bp = bpred.New(s.cfg.Bpred)
	} else {
		s.bp.Reset()
	}
	pred.Reset()
	return nil
}

// loop is the simulation main loop.
func (s *Sim) loop(ctx context.Context, r *runState, maxInsts uint64) (Stats, error) {
	cfg := s.cfg
	prog, pred, st := r.prog, r.pred, r.st
	var e emu.Exec // reused across iterations (StepInto)

	resetFetch := func(to int64) {
		r.fetchCycle = to
		r.fetchSlots = 0
		r.fetchBlocks = 0
		r.curLine = ^uint64(0)
	}

	// finalize completes and publishes end-of-run statistics. It runs
	// on every exit path — normal completion, oracle error,
	// cancellation, watchdog, injected fault — so aborted runs still
	// return, and publish, coherent partial Stats.
	finalize := func() {
		r.stats.Cycles = r.lastCycle
		r.stats.DL1Hits, r.stats.DL1Misses = s.hier.L1D.Hits, s.hier.L1D.Misses
		r.stats.IL1Hits, r.stats.IL1Misses = s.hier.L1I.Hits, s.hier.L1I.Misses
		r.stats.L2Hits, r.stats.L2Misses = s.hier.L2.Hits, s.hier.L2.Misses
		r.stats.CondBranches = s.bp.CondSeen
		r.stats.CondMispredict = s.bp.CondMispred
		r.stats.TargetMispred = s.bp.TargetMiss + s.bp.RASWrong
		if s.obs != nil {
			s.publish(s.obs.Registry(), &r.stats, pred)
		}
	}

	wd := int64(cfg.WatchdogCycles)

	for {
		if maxInsts > 0 && r.stats.Committed >= maxInsts {
			break
		}
		if r.stats.Committed&(commitBatch-1) == 0 {
			if err := ctx.Err(); err != nil {
				finalize()
				return r.stats, &simerr.SimError{
					Stage: "pipeline", Workload: prog.Name,
					Cycle: r.lastCycle, HasCycle: true, Err: err,
				}
			}
			if s.faults != nil {
				if err := s.faults.CheckPoint(r.stats.Committed, r.lastCycle); err != nil {
					finalize()
					return r.stats, &simerr.SimError{
						Stage: "faultinject", Workload: prog.Name,
						Cycle: r.lastCycle, HasCycle: true, Err: err,
					}
				}
			}
			if s.progFn != nil && s.progEvery > 0 && r.stats.Committed >= r.lastProg+s.progEvery {
				r.lastProg = r.stats.Committed
				s.progFn(r.stats.Committed, r.lastCycle)
			}
		}
		ok := st.StepInto(&e)
		if !ok {
			if st.Err() != nil {
				finalize()
				return r.stats, &simerr.SimError{
					Stage: "emu", Workload: prog.Name,
					Cycle: r.lastCycle, HasCycle: true,
					Err: fmt.Errorf("oracle: %w", st.Err()),
				}
			}
			break
		}
		in := e.Inst
		idx := e.Index
		inf := &r.info[idx]
		cls := inf.cls
		srcs := inf.srcs[:inf.nsrc]

		// ---- Refetch-recovery trigger: first use of a mispredicted value
		// squashes from this instruction onward.
		if cfg.Recovery == RecoverRefetch {
			for _, reg := range srcs {
				if p := r.regPending[reg]; p != nil && p.wrong && !p.useSeen {
					p.useSeen = true
					redirect := p.doneAt + int64(cfg.MispredPenalty)
					if redirect > r.minFetch {
						r.minFetch = redirect
					}
					r.stats.Refetches++
				}
			}
		}

		// ---- Fetch.
		if r.fetchCycle < r.minFetch {
			resetFetch(r.minFetch)
		}
		line := e.PC &^ 63
		if line != r.curLine {
			if lat := s.hier.AccessInstAt(e.PC, r.fetchCycle); lat > 0 {
				resetFetch(r.fetchCycle + int64(lat))
			}
			r.curLine = line
		}
		if r.fetchSlots >= cfg.FetchWidth {
			resetFetch(r.fetchCycle + 1)
			r.curLine = line
		}
		myFetch := r.fetchCycle
		r.fetchSlots++

		// ---- Dispatch: in order, gated by window, queue space, and
		// dispatch bandwidth.
		dispatch := myFetch + int64(cfg.FrontLatency)
		if dispatch < r.dispatchCap.last {
			dispatch = r.dispatchCap.last
		}
		if r.winN >= uint64(cfg.Window) {
			if t := r.window[r.winIdx]; t > dispatch {
				r.stats.StallWindow += t - dispatch
				dispatch = t
			}
		}
		useFPQ := inf.useFPQ
		if useFPQ {
			if r.fpN >= uint64(cfg.FPIQ) {
				if t := r.fpIQ[r.fpIdx]; t > dispatch {
					r.stats.StallFPIQ += t - dispatch
					dispatch = t
				}
			}
		} else {
			if r.intN >= uint64(cfg.IntIQ) {
				if t := r.intIQ[r.intIdx]; t > dispatch {
					r.stats.StallIntIQ += t - dispatch
					dispatch = t
				}
			}
		}
		dispatch = r.dispatchCap.bookFrom(dispatch)

		// ---- Value prediction decision.
		var dec core.Decision
		var predVal uint64
		var predReady int64
		predicted := false
		correct := false
		if e.WroteRd {
			r.stats.Eligible++
			dec = pred.Decide(idx, in)
			if s.faults != nil && dec.Kind != core.KindNone && s.faults.FlipPredict(idx) {
				dec.Predict = !dec.Predict
			}
			if dec.Kind != core.KindNone || dec.Predict {
				switch dec.Kind {
				case core.KindSameReg:
					predVal = e.OldDest
					predReady = r.regReady[in.Rd]
				case core.KindOtherReg:
					if dec.Reg == in.Rd {
						predVal = e.OldDest
					} else {
						predVal = st.Regs[dec.Reg]
					}
					predReady = r.regReady[dec.Reg]
				case core.KindLastValue:
					predVal = r.lvLast[idx]
					predReady = r.lvReady[idx]
				case core.KindBuffer:
					predVal = dec.Value
					predReady = dispatch
				}
			}
			if dec.Predict {
				predicted = true
				// Non-load register-source predictions need an extra
				// register read port to fetch the prior value for the
				// verification compare; buffer-based predictions (LVP)
				// come with their own value datapath instead.
				if cls != isa.ClassLoad && dec.Kind != core.KindBuffer && cfg.PredictPorts > 0 && !r.portCap.tryBook(dispatch) {
					predicted = false
					r.stats.PortStarved++
				}
			}
			if predicted {
				correct = predVal == e.NewDest
				r.stats.Predicted++
				if correct {
					r.stats.PredictCorrect++
				} else {
					r.stats.PredictWrong++
				}
			}
		}

		// ---- Source operands, first-use detection, selective taint.
		srcReady := dispatch + 1
		var holdUntil int64
		for _, reg := range srcs {
			if t := r.regReady[reg]; t > srcReady {
				srcReady = t
			}
			if cfg.Recovery == RecoverSelective && r.specUntil[reg] > holdUntil {
				holdUntil = r.specUntil[reg]
			}
			if p := r.regPending[reg]; p != nil && !p.useSeen {
				p.useSeen = true
			}
		}

		// Reissue: every instruction dispatched after a pending
		// prediction's first use stays queued until it verifies.
		if cfg.Recovery == RecoverReissue {
			live := r.activePreds[:0]
			for _, p := range r.activePreds {
				if p.verifyAt > dispatch {
					live = append(live, p)
					if p.useSeen && p.verifyAt > holdUntil {
						holdUntil = p.verifyAt
					}
				} else {
					r.release(p)
				}
			}
			r.activePreds = live
		}

		// ---- Issue: earliest cycle with a free unit and issue slot.
		t := srcReady
		if t < dispatch+1 {
			t = dispatch + 1
		}
		isMem := inf.isMem
		unit := bookInt
		if useFPQ {
			unit = bookFP
		}
		for !r.issue.avail(t, unit, isMem) {
			t++
		}
		if t-dispatch >= int64(len(r.issue.slot)) {
			r.issue.grow(dispatch, t)
		}
		r.issue.book(t, unit, isMem)
		issueAt := t

		// ---- Completion.
		doneAt := issueAt + inf.lat
		if isMem {
			lat := s.hier.AccessDataAt(e.EA, issueAt)
			if s.faults != nil {
				lat = s.faults.MemLatency(e.EA, issueAt, lat)
			}
			doneAt += int64(lat)
			if cls == isa.ClassLoad {
				r.stats.Loads++
			} else {
				r.stats.Stores++
			}
		}

		// ---- Prediction verification and destination readiness.
		// taintOut is the speculation horizon this instruction's result
		// carries to its consumers (selective reissue): inherited source
		// taints plus, when predicted, its own verification time. The
		// predicted instruction itself is NOT held in the queue — it
		// cannot reissue; only its dependents are.
		var verifyAt int64
		taintOut := holdUntil
		if e.WroteRd {
			if predicted {
				verifyAt = doneAt
				if predReady > verifyAt {
					verifyAt = predReady
				}
				pp := r.newPending(verifyAt, doneAt, !correct)
				if old := r.regPending[in.Rd]; old != nil {
					r.release(old)
				}
				r.regPending[in.Rd] = pp
				r.retain(pp)
				if cfg.Recovery == RecoverReissue {
					r.activePreds = append(r.activePreds, pp)
					r.retain(pp)
				}
				switch {
				case correct:
					// Consumers read the prior register value.
					rr := predReady
					if doneAt < rr {
						rr = doneAt
					}
					r.regReady[in.Rd] = rr
				case cfg.Recovery == RecoverRefetch:
					r.regReady[in.Rd] = doneAt
				default:
					// Dependents reissue one cycle after the real value.
					r.regReady[in.Rd] = doneAt + 1
				}
				if cfg.Recovery == RecoverSelective && verifyAt > taintOut {
					taintOut = verifyAt
				}
			} else {
				r.regReady[in.Rd] = doneAt
				if old := r.regPending[in.Rd]; old != nil {
					r.release(old)
					r.regPending[in.Rd] = nil
				}
			}
			if cfg.Recovery == RecoverSelective {
				r.specUntil[in.Rd] = taintOut
			}
			if e.NewDest == r.lvLast[idx] {
				if doneAt < r.lvReady[idx] {
					r.lvReady[idx] = doneAt
				}
			} else {
				r.lvReady[idx] = doneAt
				r.lvLast[idx] = e.NewDest
			}
		}

		// ---- Queue slot release.
		qFree := issueAt + 1
		if holdUntil > qFree {
			qFree = holdUntil
		}
		if useFPQ {
			r.fpIQ[r.fpIdx] = qFree
			r.fpN++
			if r.fpIdx++; r.fpIdx == cfg.FPIQ {
				r.fpIdx = 0
			}
		} else {
			r.intIQ[r.intIdx] = qFree
			r.intN++
			if r.intIdx++; r.intIdx == cfg.IntIQ {
				r.intIdx = 0
			}
		}

		// ---- Control transfers: predictor consultation and redirects.
		if e.IsCTI {
			r.stats.Branches++
			s.handleCTI(&e, idx, myFetch, doneAt, &r.minFetch, &r.fetchBlocks)
		}

		// ---- Commit: in order, after completion and verification.
		commitAt := doneAt + 1
		if predicted && verifyAt+1 > commitAt {
			commitAt = verifyAt + 1
		}
		prevCommit := r.commitCap.last
		commitAt = r.commitCap.bookFrom(commitAt)
		if wd > 0 && commitAt-prevCommit > wd {
			finalize()
			return r.stats, &simerr.SimError{
				Stage: "pipeline", Workload: prog.Name,
				PC: e.PC, Cycle: commitAt, HasPC: true, HasCycle: true,
				Err: fmt.Errorf("no commit for %d cycles (watchdog %d): %w",
					commitAt-prevCommit, wd, simerr.ErrNoProgress),
			}
		}
		r.window[r.winIdx] = commitAt
		r.winN++
		if r.winIdx++; r.winIdx == cfg.Window {
			r.winIdx = 0
		}
		if commitAt > r.lastCycle {
			r.lastCycle = commitAt
		}
		r.stats.Committed++

		// ---- Train the value predictor (in program order).
		if e.WroteRd {
			pred.Commit(idx, in, predVal, e.NewDest)
		}

		if s.tracer != nil {
			s.tracer(TraceRecord{
				Index:     idx,
				FetchAt:   myFetch,
				Dispatch:  dispatch,
				IssueAt:   issueAt,
				DoneAt:    doneAt,
				CommitAt:  commitAt,
				Predicted: predicted,
				Correct:   correct,
				PC:        e.PC,
				WroteRd:   e.WroteRd,
				Rd:        in.Rd,
				Value:     e.NewDest,
			})
		}

		if in.Op == isa.HALT {
			break
		}
	}

	finalize()
	return r.stats, nil
}

// handleCTI models the front end's interaction with one control transfer:
// direction prediction, target prediction, taken-branch fetch breaks, and
// redirect penalties for mispredictions.
func (s *Sim) handleCTI(e *emu.Exec, idx int, myFetch, doneAt int64, minFetch *int64, fetchBlocks *int) {
	cfg := &s.cfg
	redirect := func(at int64) {
		if at > *minFetch {
			*minFetch = at
		}
	}
	takenBreak := func() {
		*fetchBlocks++
		if *fetchBlocks >= cfg.MaxFetchBlocks {
			// The fetch unit cannot follow another taken branch this
			// cycle; fetch resumes next cycle.
			redirect(myFetch + 1)
		}
	}
	switch {
	case isa.IsCondBranch(e.Inst.Op):
		predTaken := s.bp.PredictCond(idx)
		dirCorrect := s.bp.UpdateCond(idx, e.Taken, predTaken)
		if !dirCorrect {
			redirect(doneAt + int64(cfg.MispredPenalty))
			return
		}
		if !e.Taken {
			return // correctly predicted not-taken: no fetch break
		}
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			// Direction known taken but target unknown in the BTB: the
			// target is static, so decode redirects (misfetch).
			redirect(myFetch + int64(cfg.MisfetchPenalty))
		}
	case e.Inst.Op == isa.BR:
		if e.Inst.Rd == isa.RRA {
			s.bp.OnFetchCall(e.Index + 1)
		}
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			redirect(myFetch + int64(cfg.MisfetchPenalty))
		}
	case e.Inst.Op == isa.JSR:
		s.bp.OnFetchCall(e.Index + 1)
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			// Register-indirect target: resolved at execute.
			redirect(doneAt + int64(cfg.MispredPenalty))
		}
	case e.Inst.Op == isa.RET:
		tgt, ok := s.bp.PredictTarget(e.Inst.Op, idx)
		s.bp.OnFetchReturn()
		if s.bp.UpdateTarget(e.Inst.Op, idx, e.Next, tgt, ok) {
			takenBreak()
		} else {
			redirect(doneAt + int64(cfg.MispredPenalty))
		}
	}
}
