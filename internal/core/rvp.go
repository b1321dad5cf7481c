package core

import (
	"rvpsim/internal/isa"
)

// Dense per-static-instruction state
//
// The predictors below are consulted once per committed instruction, so
// their per-static-instruction state (last outputs, reuse hints, marked
// sets, eligibility) is kept in flat slices indexed by static instruction
// index rather than maps. The slices are pre-sized by SizeHint (the
// pipeline calls it with len(prog.Insts) before simulation); until then
// the predictors grow the slices on demand, so they remain correct when
// driven without a hint. Eligibility — a pure function of the (immutable)
// instruction at each index — is memoized in a three-state byte array.

// Eligibility memo states.
const (
	eligUnknown uint8 = iota
	eligYes
	eligNo
)

// growU64 extends s with zeros to length n (no-op if already long enough).
func growU64(s []uint64, n int) []uint64 {
	if len(s) >= n {
		return s
	}
	return append(s, make([]uint64, n-len(s))...)
}

// denseHints expands a ReuseHints map into parallel kind/register arrays
// of length n. Indices absent from the map get KindNone (plain
// same-register reuse).
func denseHints(h ReuseHints, n int) ([]Kind, []isa.Reg) {
	k := make([]Kind, n)
	r := make([]isa.Reg, n)
	for i, hint := range h {
		if i >= 0 && i < n {
			k[i] = hint.Kind
			r[i] = hint.Reg
		}
	}
	return k, r
}

// DynamicRVP is the paper's dynamic register value predictor: a table of
// small resetting confidence counters indexed by instruction PC and *no*
// value storage. An instruction whose counter is confident is predicted
// to produce the value already in its destination register (or, with
// compiler hints, in a correlated register / its own reserved register).
type DynamicRVP struct {
	name     string
	counters *CounterTable
	hints    ReuseHints
	loadOnly bool
	lastOut  []uint64 // per-static-instruction last result (LV hints)

	// Dense fast-path state, built by SizeHint.
	hKind []Kind    // hint kind per index (KindNone = same-reg)
	hReg  []isa.Reg // correlated register for KindOtherReg hints
	elig  []uint8   // eligibility memo
}

// DynamicRVPOption configures NewDynamicRVP.
type DynamicRVPOption func(*DynamicRVP)

// WithHints supplies profile-derived compiler re-allocation hints.
func WithHints(h ReuseHints) DynamicRVPOption {
	return func(p *DynamicRVP) { p.hints = h }
}

// LoadsOnly restricts prediction to load instructions.
func LoadsOnly() DynamicRVPOption {
	return func(p *DynamicRVP) { p.loadOnly = true }
}

// WithName overrides the report name.
func WithName(name string) DynamicRVPOption {
	return func(p *DynamicRVP) { p.name = name }
}

// NewDynamicRVP builds a dynamic RVP predictor with the given counter
// configuration. Invalid configurations are reported as errors wrapping
// simerr.ErrConfig.
func NewDynamicRVP(cfg CounterConfig, opts ...DynamicRVPOption) (*DynamicRVP, error) {
	t, err := NewCounterTable(cfg)
	if err != nil {
		return nil, err
	}
	p := &DynamicRVP{
		name:     "drvp",
		counters: t,
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// MustDynamicRVP is NewDynamicRVP, panicking on error (tests and
// known-valid defaults).
func MustDynamicRVP(cfg CounterConfig, opts ...DynamicRVPOption) *DynamicRVP {
	p, err := NewDynamicRVP(cfg, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Predictor.
func (p *DynamicRVP) Name() string { return p.name }

// SizeHint implements SizeHinter: pre-sizes every per-static-instruction
// slice to n so the commit path never allocates.
func (p *DynamicRVP) SizeHint(n int) {
	if n <= 0 {
		return
	}
	p.lastOut = growU64(p.lastOut, n)
	if len(p.hKind) < n {
		p.hKind, p.hReg = denseHints(p.hints, n)
	}
	if len(p.elig) < n {
		p.elig = make([]uint8, n)
	}
}

// eligibleSlow is the unmemoized eligibility predicate.
func (p *DynamicRVP) eligibleSlow(in isa.Inst) bool {
	if !in.WritesReg() {
		return false
	}
	if p.loadOnly {
		return isa.IsLoad(in.Op)
	}
	// Control transfers that write a link register are not usefully
	// predictable (their value is the PC); the paper predicts
	// register-writing computation and load instructions.
	return isa.Classify(in.Op) != isa.ClassBranch
}

// eligible reports whether the predictor considers this instruction at
// all, memoizing per static index once SizeHint has sized the memo.
func (p *DynamicRVP) eligible(idx int, in isa.Inst) bool {
	if idx < len(p.elig) {
		switch p.elig[idx] {
		case eligYes:
			return true
		case eligNo:
			return false
		}
		ok := p.eligibleSlow(in)
		if ok {
			p.elig[idx] = eligYes
		} else {
			p.elig[idx] = eligNo
		}
		return ok
	}
	return p.eligibleSlow(in)
}

// source returns the prediction source for the instruction.
func (p *DynamicRVP) source(idx int, in isa.Inst) (Kind, isa.Reg) {
	if idx < len(p.hKind) {
		switch p.hKind[idx] {
		case KindOtherReg:
			return KindOtherReg, p.hReg[idx]
		case KindLastValue:
			return KindLastValue, in.Rd
		}
		return KindSameReg, in.Rd
	}
	if h, ok := p.hints[idx]; ok {
		switch h.Kind {
		case KindOtherReg:
			return KindOtherReg, h.Reg
		case KindLastValue:
			return KindLastValue, in.Rd
		}
	}
	return KindSameReg, in.Rd
}

// Decide implements Predictor.
func (p *DynamicRVP) Decide(idx int, in isa.Inst) Decision {
	if !p.eligible(idx, in) {
		return Decision{}
	}
	k, r := p.source(idx, in)
	d := Decision{Kind: k, Reg: r}
	if k == KindLastValue {
		d.Value = p.LastOut(idx)
	}
	d.Predict = p.counters.Confident(idx)
	return d
}

// Commit implements Predictor: reuse is "the source value equalled the
// result".
func (p *DynamicRVP) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if !p.eligible(idx, in) {
		return
	}
	p.counters.Update(idx, predicted == actual)
	k, _ := p.source(idx, in)
	if k == KindLastValue {
		if idx >= len(p.lastOut) {
			p.lastOut = growU64(p.lastOut, idx+1)
		}
		p.lastOut[idx] = actual
	}
}

// LastOut returns the instruction's previous result for KindLastValue
// sources (zero before the first execution).
func (p *DynamicRVP) LastOut(idx int) uint64 {
	if idx < len(p.lastOut) {
		return p.lastOut[idx]
	}
	return 0
}

// StorageBits implements Predictor: the confidence counters, and no
// values.
func (p *DynamicRVP) StorageBits() int { return RVPStorageBits(p.counters.Config()) }

// Reset implements Predictor: all dynamic state is cleared in place so
// sweep cells that reuse a predictor do not churn the heap.
func (p *DynamicRVP) Reset() {
	p.counters.Reset()
	for i := range p.lastOut {
		p.lastOut[i] = 0
	}
	for i := range p.elig {
		p.elig[i] = eligUnknown
	}
}

// StaticRVP models the paper's static scheme: the compiler marks
// profitable loads with rvp_load opcodes (or, equivalently here, supplies
// the marked set), and the hardware predicts every execution of a marked
// load with no confidence hardware at all.
type StaticRVP struct {
	name    string
	marked  map[int]bool
	hints   ReuseHints
	lastOut []uint64

	// Dense fast-path state, built by SizeHint.
	markedD []bool
	hKind   []Kind
	hReg    []isa.Reg
	elig    []uint8
}

// NewStaticRVP builds a static RVP predictor from the marked-instruction
// set and reuse hints produced by the profiler.
func NewStaticRVP(name string, marked map[int]bool, hints ReuseHints) *StaticRVP {
	return &StaticRVP{name: name, marked: marked, hints: hints}
}

// Name implements Predictor.
func (p *StaticRVP) Name() string { return p.name }

// SizeHint implements SizeHinter.
func (p *StaticRVP) SizeHint(n int) {
	if n <= 0 {
		return
	}
	p.lastOut = growU64(p.lastOut, n)
	if len(p.markedD) < n {
		p.markedD = make([]bool, n)
		for i := range p.marked {
			if i >= 0 && i < n && p.marked[i] {
				p.markedD[i] = true
			}
		}
	}
	if len(p.hKind) < n {
		p.hKind, p.hReg = denseHints(p.hints, n)
	}
	if len(p.elig) < n {
		p.elig = make([]uint8, n)
	}
}

// eligible reports WritesReg && !branch, memoized per static index.
func (p *StaticRVP) eligible(idx int, in isa.Inst) bool {
	if idx < len(p.elig) {
		switch p.elig[idx] {
		case eligYes:
			return true
		case eligNo:
			return false
		}
		ok := in.WritesReg() && isa.Classify(in.Op) != isa.ClassBranch
		if ok {
			p.elig[idx] = eligYes
		} else {
			p.elig[idx] = eligNo
		}
		return ok
	}
	return in.WritesReg() && isa.Classify(in.Op) != isa.ClassBranch
}

// isMarked consults the dense marked set when built, the map otherwise.
func (p *StaticRVP) isMarked(idx int) bool {
	if idx < len(p.markedD) {
		return p.markedD[idx]
	}
	return p.marked[idx]
}

// hint returns the reuse hint kind (and register) for idx.
func (p *StaticRVP) hint(idx int) (Kind, isa.Reg) {
	if idx < len(p.hKind) {
		return p.hKind[idx], p.hReg[idx]
	}
	if h, ok := p.hints[idx]; ok {
		return h.Kind, h.Reg
	}
	return KindNone, 0
}

// Decide implements Predictor. An instruction is predicted iff it is
// marked (static RVP applies to loads; the marked set contains loads).
// Control transfers are never predicted even if a stale mark aliases one.
func (p *StaticRVP) Decide(idx int, in isa.Inst) Decision {
	if !p.isMarked(idx) || !p.eligible(idx, in) {
		return Decision{}
	}
	d := Decision{Predict: true, Kind: KindSameReg, Reg: in.Rd}
	switch k, r := p.hint(idx); k {
	case KindOtherReg:
		d.Kind, d.Reg = KindOtherReg, r
	case KindLastValue:
		d.Kind = KindLastValue
		d.Value = p.LastOut(idx)
	}
	return d
}

// Commit implements Predictor (static RVP has no counters; it only tracks
// last outputs for KindLastValue hints).
func (p *StaticRVP) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if k, _ := p.hint(idx); k == KindLastValue {
		if idx >= len(p.lastOut) {
			p.lastOut = growU64(p.lastOut, idx+1)
		}
		p.lastOut[idx] = actual
	}
}

// LastOut returns the instruction's previous result.
func (p *StaticRVP) LastOut(idx int) uint64 {
	if idx < len(p.lastOut) {
		return p.lastOut[idx]
	}
	return 0
}

// StorageBits implements Predictor: the compiler marks the predicted
// loads, so static RVP needs no prediction hardware at all.
func (p *StaticRVP) StorageBits() int { return 0 }

// Reset implements Predictor: clears dynamic state in place.
func (p *StaticRVP) Reset() {
	for i := range p.lastOut {
		p.lastOut[i] = 0
	}
	for i := range p.elig {
		p.elig[i] = eligUnknown
	}
}

// GabbayRVP is the Gabbay & Mendelson register-file predictor the paper
// compares against: confidence counters associated with *architectural
// registers* rather than instructions, so every instruction writing a
// register shares that register's counter — the interference the paper
// blames for its poor coverage.
type GabbayRVP struct {
	name     string
	cfg      CounterConfig
	counters *CounterTable
	loadOnly bool
	elig     []uint8
}

// NewGabbayRVP builds the register-indexed predictor. Entries beyond the
// 64 architectural registers are unused; the counter parameters (bits,
// threshold) match cfg. Invalid parameters are reported as errors
// wrapping simerr.ErrConfig.
func NewGabbayRVP(cfg CounterConfig, loadOnly bool) (*GabbayRVP, error) {
	c := cfg
	c.Entries = 64
	c.Tagged = false
	t, err := NewCounterTable(c)
	if err != nil {
		return nil, err
	}
	return &GabbayRVP{name: "grp", cfg: c, counters: t, loadOnly: loadOnly}, nil
}

// MustGabbayRVP is NewGabbayRVP, panicking on error.
func MustGabbayRVP(cfg CounterConfig, loadOnly bool) *GabbayRVP {
	p, err := NewGabbayRVP(cfg, loadOnly)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Predictor.
func (p *GabbayRVP) Name() string { return p.name }

// SizeHint implements SizeHinter.
func (p *GabbayRVP) SizeHint(n int) {
	if n > 0 && len(p.elig) < n {
		p.elig = make([]uint8, n)
	}
}

func (p *GabbayRVP) eligibleSlow(in isa.Inst) bool {
	if !in.WritesReg() {
		return false
	}
	if p.loadOnly {
		return isa.IsLoad(in.Op)
	}
	return isa.Classify(in.Op) != isa.ClassBranch
}

func (p *GabbayRVP) eligible(idx int, in isa.Inst) bool {
	if idx < len(p.elig) {
		switch p.elig[idx] {
		case eligYes:
			return true
		case eligNo:
			return false
		}
		ok := p.eligibleSlow(in)
		if ok {
			p.elig[idx] = eligYes
		} else {
			p.elig[idx] = eligNo
		}
		return ok
	}
	return p.eligibleSlow(in)
}

// Decide implements Predictor: the counter is indexed by the destination
// register number.
func (p *GabbayRVP) Decide(idx int, in isa.Inst) Decision {
	if !p.eligible(idx, in) {
		return Decision{}
	}
	d := Decision{Kind: KindSameReg, Reg: in.Rd}
	if p.counters.Confident(int(in.Rd)) {
		d.Predict = true
	}
	return d
}

// Commit implements Predictor.
func (p *GabbayRVP) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if !p.eligible(idx, in) {
		return
	}
	p.counters.Update(int(in.Rd), predicted == actual)
}

// StorageBits implements Predictor: one counter per architectural
// register.
func (p *GabbayRVP) StorageBits() int { return RVPStorageBits(p.cfg) }

// Reset implements Predictor.
func (p *GabbayRVP) Reset() {
	p.counters.Reset()
	for i := range p.elig {
		p.elig[i] = eligUnknown
	}
}

// NoPredictor never predicts; it is the no_predict baseline.
type NoPredictor struct{}

// Name implements Predictor.
func (NoPredictor) Name() string { return "no_predict" }

// Decide implements Predictor.
func (NoPredictor) Decide(int, isa.Inst) Decision { return Decision{} }

// Commit implements Predictor.
func (NoPredictor) Commit(int, isa.Inst, uint64, uint64) {}

// Reset implements Predictor.
func (NoPredictor) Reset() {}

// StorageBits implements Predictor.
func (NoPredictor) StorageBits() int { return 0 }
