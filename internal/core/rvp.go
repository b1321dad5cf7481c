package core

import (
	"rvpsim/internal/isa"
)

// Dense per-static-instruction state
//
// The RVP predictors below hold no values: they decide whether to predict
// and from which source, and the pipeline reads the value from the
// register file or, for KindLastValue, from the instruction's reserved
// register. Their only per-static-instruction state is configuration —
// reuse hints and the static marked set — expanded by SizeHint (the
// pipeline calls it with len(prog.Insts) before simulation) from maps
// into flat slices indexed by static instruction. Without a hint they
// read the maps, so they stay correct when driven without one.

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

	// Dense fast-path state, built by SizeHint.
	hKind []Kind    // hint kind per index (KindNone = same-reg)
	hReg  []isa.Reg // correlated register for KindOtherReg hints
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

// SizeHint implements SizeHinter: expands the reuse hints into dense
// per-static-instruction slices of length n.
func (p *DynamicRVP) SizeHint(n int) {
	if n > 0 && len(p.hKind) < n {
		p.hKind, p.hReg = denseHints(p.hints, n)
	}
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
	if !eligible(in, p.loadOnly) {
		return Decision{}
	}
	k, r := p.source(idx, in)
	return Decision{Predict: p.counters.Confident(idx), Kind: k, Reg: r}
}

// Commit implements Predictor: reuse is "the source value equalled the
// result".
func (p *DynamicRVP) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if eligible(in, p.loadOnly) {
		p.counters.Update(idx, predicted == actual)
	}
}

// StorageBits implements Predictor: the confidence counters, and no
// values.
func (p *DynamicRVP) StorageBits() int { return RVPStorageBits(p.counters.Config()) }

// Reset implements Predictor: all dynamic state is cleared in place so
// sweep cells that reuse a predictor do not churn the heap.
func (p *DynamicRVP) Reset() { p.counters.Reset() }

// StaticRVP models the paper's static scheme: the compiler marks
// profitable loads with rvp_load opcodes (or, equivalently here, supplies
// the marked set), and the hardware predicts every execution of a marked
// load with no confidence hardware at all.
type StaticRVP struct {
	name   string
	marked map[int]bool
	hints  ReuseHints

	// Dense fast-path state, built by SizeHint.
	markedD []bool
	hKind   []Kind
	hReg    []isa.Reg
}

// NewStaticRVP builds a static RVP predictor from the marked-instruction
// set and reuse hints produced by the profiler.
func NewStaticRVP(name string, marked map[int]bool, hints ReuseHints) *StaticRVP {
	return &StaticRVP{name: name, marked: marked, hints: hints}
}

// Name implements Predictor.
func (p *StaticRVP) Name() string { return p.name }

// SizeHint implements SizeHinter: expands the marked set and the reuse
// hints into dense per-static-instruction slices of length n.
func (p *StaticRVP) SizeHint(n int) {
	if n <= 0 {
		return
	}
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
	if !p.isMarked(idx) || !eligible(in, false) {
		return Decision{}
	}
	d := Decision{Predict: true, Kind: KindSameReg, Reg: in.Rd}
	switch k, r := p.hint(idx); k {
	case KindOtherReg:
		d.Kind, d.Reg = KindOtherReg, r
	case KindLastValue:
		d.Kind = KindLastValue
	}
	return d
}

// Commit implements Predictor: static RVP has no counters and holds no
// values, so there is nothing to train.
func (p *StaticRVP) Commit(int, isa.Inst, uint64, uint64) {}

// StorageBits implements Predictor: the compiler marks the predicted
// loads, so static RVP needs no prediction hardware at all.
func (p *StaticRVP) StorageBits() int { return 0 }

// Reset implements Predictor: static RVP has no dynamic state.
func (p *StaticRVP) Reset() {}

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

// Decide implements Predictor: the counter is indexed by the destination
// register number.
func (p *GabbayRVP) Decide(idx int, in isa.Inst) Decision {
	if !eligible(in, p.loadOnly) {
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
	if eligible(in, p.loadOnly) {
		p.counters.Update(int(in.Rd), predicted == actual)
	}
}

// StorageBits implements Predictor: one counter per architectural
// register.
func (p *GabbayRVP) StorageBits() int { return RVPStorageBits(p.cfg) }

// Reset implements Predictor.
func (p *GabbayRVP) Reset() { p.counters.Reset() }

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
