package core

import (
	"fmt"

	"rvpsim/internal/isa"
	"rvpsim/internal/simerr"
)

// This file implements the more sophisticated buffer-based predictors the
// paper positions RVP against (Section 2 / Section 7.1's "schemes that
// add additional storage and complexity to what is required for
// last-value prediction"): a stride predictor in the style of Gabbay &
// Mendelson, and a finite-context (two-level) predictor in the style of
// Sazeides & Smith. They exist as comparators and for the storage-cost
// ablation; the paper's headline comparison deliberately stops at LVP.

// StrideConfig configures the stride predictor.
type StrideConfig struct {
	Entries   int   // table entries (power of two)
	Threshold uint8 // resetting-counter confidence threshold
	Bits      uint8 // counter width
	LoadOnly  bool
}

// DefaultStrideConfig mirrors the LVP baseline's sizing.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{Entries: 1024, Threshold: 7, Bits: 3}
}

// StridePredictor predicts value + stride: it tracks each instruction's
// last value and the difference between its last two values, and
// predicts last + stride when the stride has been stable. Degenerates to
// last-value prediction when the stride is zero.
type StridePredictor struct {
	cfg    StrideConfig
	max    uint8
	tags   []int32
	last   []uint64
	stride []uint64
	ctr    []uint8
}

// Validate checks the configuration. Errors wrap simerr.ErrConfig.
func (c StrideConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("core: stride entries %d not a power of two: %w", c.Entries, simerr.ErrConfig)
	}
	if c.Bits == 0 || c.Bits > 8 || c.Threshold > uint8(1<<c.Bits-1) {
		return fmt.Errorf("core: stride counter bits/threshold invalid: %w", simerr.ErrConfig)
	}
	return nil
}

// NewStridePredictor builds the predictor. Invalid configurations are
// reported as errors wrapping simerr.ErrConfig.
func NewStridePredictor(cfg StrideConfig) (*StridePredictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &StridePredictor{
		cfg:    cfg,
		max:    uint8(1<<cfg.Bits - 1),
		tags:   make([]int32, cfg.Entries),
		last:   make([]uint64, cfg.Entries),
		stride: make([]uint64, cfg.Entries),
		ctr:    make([]uint8, cfg.Entries),
	}
	for i := range p.tags {
		p.tags[i] = -1
	}
	return p, nil
}

// MustStridePredictor is NewStridePredictor, panicking on error.
func MustStridePredictor(cfg StrideConfig) *StridePredictor {
	p, err := NewStridePredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Predictor.
func (p *StridePredictor) Name() string { return "stride" }

func (p *StridePredictor) index(pc int) int { return pc & (p.cfg.Entries - 1) }

func (p *StridePredictor) eligible(in isa.Inst) bool {
	if !in.WritesReg() {
		return false
	}
	if p.cfg.LoadOnly {
		return isa.IsLoad(in.Op)
	}
	return isa.Classify(in.Op) != isa.ClassBranch
}

// Decide implements Predictor.
func (p *StridePredictor) Decide(idx int, in isa.Inst) Decision {
	if !p.eligible(in) {
		return Decision{}
	}
	i := p.index(idx)
	if p.tags[i] != int32(idx) {
		return Decision{Kind: KindBuffer}
	}
	d := Decision{Kind: KindBuffer, Value: p.last[i] + p.stride[i]}
	if p.ctr[i] >= p.cfg.Threshold {
		d.Predict = true
	}
	return d
}

// Commit implements Predictor.
func (p *StridePredictor) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if !p.eligible(in) {
		return
	}
	i := p.index(idx)
	if p.tags[i] != int32(idx) {
		p.tags[i] = int32(idx)
		p.last[i] = actual
		p.stride[i] = 0
		p.ctr[i] = 0
		return
	}
	newStride := actual - p.last[i]
	if newStride == p.stride[i] {
		if p.ctr[i] < p.max {
			p.ctr[i]++
		}
	} else {
		p.ctr[i] = 0
		p.stride[i] = newStride
	}
	p.last[i] = actual
}

// Reset implements Predictor.
func (p *StridePredictor) Reset() {
	for i := range p.tags {
		p.tags[i] = -1
		p.last[i] = 0
		p.stride[i] = 0
		p.ctr[i] = 0
	}
}

// StorageBits implements Predictor: value + stride per entry, a 20-bit
// tag, and the counter.
func (p *StridePredictor) StorageBits() int {
	return p.cfg.Entries * (64 + 64 + 20 + int(p.cfg.Bits))
}

// ContextConfig configures the finite-context predictor.
type ContextConfig struct {
	Entries    int // first-level entries (power of two)
	HistDepth  int // values of history per entry (order)
	PatEntries int // second-level pattern table entries (power of two)
	Threshold  uint8
	Bits       uint8
	LoadOnly   bool
}

// DefaultContextConfig mirrors a modest order-2 FCM.
func DefaultContextConfig() ContextConfig {
	return ContextConfig{Entries: 1024, HistDepth: 2, PatEntries: 4096, Threshold: 7, Bits: 3}
}

// ContextPredictor is an order-N finite-context-method predictor: the
// first level records each instruction's last N values; their hash
// indexes a shared second-level table holding the predicted next value
// and a confidence counter. It captures repeating value *sequences* that
// defeat last-value and stride prediction, at a large storage cost.
type ContextPredictor struct {
	cfg  ContextConfig
	max  uint8
	tags []int32
	hist [][]uint64

	patVal []uint64
	patCtr []uint8
}

// Validate checks the configuration. Errors wrap simerr.ErrConfig.
func (c ContextConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 ||
		c.PatEntries <= 0 || c.PatEntries&(c.PatEntries-1) != 0 {
		return fmt.Errorf("core: context predictor sizes must be powers of two: %w", simerr.ErrConfig)
	}
	if c.HistDepth < 1 {
		return fmt.Errorf("core: context predictor needs history depth >= 1: %w", simerr.ErrConfig)
	}
	if c.Bits == 0 || c.Bits > 8 || c.Threshold > uint8(1<<c.Bits-1) {
		return fmt.Errorf("core: context counter bits/threshold invalid: %w", simerr.ErrConfig)
	}
	return nil
}

// NewContextPredictor builds the predictor. Invalid configurations are
// reported as errors wrapping simerr.ErrConfig.
func NewContextPredictor(cfg ContextConfig) (*ContextPredictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &ContextPredictor{
		cfg:    cfg,
		max:    uint8(1<<cfg.Bits - 1),
		tags:   make([]int32, cfg.Entries),
		hist:   make([][]uint64, cfg.Entries),
		patVal: make([]uint64, cfg.PatEntries),
		patCtr: make([]uint8, cfg.PatEntries),
	}
	for i := range p.tags {
		p.tags[i] = -1
		p.hist[i] = make([]uint64, cfg.HistDepth)
	}
	return p, nil
}

// MustContextPredictor is NewContextPredictor, panicking on error.
func MustContextPredictor(cfg ContextConfig) *ContextPredictor {
	p, err := NewContextPredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Predictor.
func (p *ContextPredictor) Name() string { return "context" }

func (p *ContextPredictor) index(pc int) int { return pc & (p.cfg.Entries - 1) }

func (p *ContextPredictor) hash(idx int) int {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range p.hist[p.index(idx)] {
		h ^= v
		h *= 0x100000001b3
	}
	h ^= uint64(idx)
	return int(h>>17) & (p.cfg.PatEntries - 1)
}

func (p *ContextPredictor) eligible(in isa.Inst) bool {
	if !in.WritesReg() {
		return false
	}
	if p.cfg.LoadOnly {
		return isa.IsLoad(in.Op)
	}
	return isa.Classify(in.Op) != isa.ClassBranch
}

// Decide implements Predictor.
func (p *ContextPredictor) Decide(idx int, in isa.Inst) Decision {
	if !p.eligible(in) {
		return Decision{}
	}
	if p.tags[p.index(idx)] != int32(idx) {
		return Decision{Kind: KindBuffer}
	}
	pi := p.hash(idx)
	d := Decision{Kind: KindBuffer, Value: p.patVal[pi]}
	if p.patCtr[pi] >= p.cfg.Threshold {
		d.Predict = true
	}
	return d
}

// Commit implements Predictor.
func (p *ContextPredictor) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if !p.eligible(in) {
		return
	}
	i := p.index(idx)
	if p.tags[i] == int32(idx) {
		pi := p.hash(idx)
		if p.patVal[pi] == actual {
			if p.patCtr[pi] < p.max {
				p.patCtr[pi]++
			}
		} else {
			p.patVal[pi] = actual
			p.patCtr[pi] = 0
		}
	} else {
		p.tags[i] = int32(idx)
		for k := range p.hist[i] {
			p.hist[i][k] = 0
		}
	}
	// Shift the new value into the history.
	h := p.hist[i]
	copy(h, h[1:])
	h[len(h)-1] = actual
}

// Reset implements Predictor.
func (p *ContextPredictor) Reset() {
	for i := range p.tags {
		p.tags[i] = -1
		for k := range p.hist[i] {
			p.hist[i][k] = 0
		}
	}
	for i := range p.patVal {
		p.patVal[i] = 0
		p.patCtr[i] = 0
	}
}

// StorageBits implements Predictor. The cost is large: per-entry history
// and tag at the first level, value + counter at the second.
func (p *ContextPredictor) StorageBits() int {
	l1 := p.cfg.Entries * (64*p.cfg.HistDepth + 20)
	l2 := p.cfg.PatEntries * (64 + int(p.cfg.Bits))
	return l1 + l2
}

// RVPStorageBits reports dynamic RVP's total hardware cost for a counter
// configuration — just the counters (plus tags when configured), no
// values. This is the asymmetry the paper's title is about.
func RVPStorageBits(cfg CounterConfig) int {
	bits := cfg.Entries * int(cfg.Bits)
	if cfg.Tagged {
		bits += cfg.Entries * 20
	}
	return bits
}
