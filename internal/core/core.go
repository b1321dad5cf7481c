// Package core implements the paper's primary contribution: register value
// prediction (RVP) in its static and dynamic forms, together with the two
// baselines it is measured against — conventional last-value prediction
// (LVP) and the Gabbay & Mendelson register-file predictor.
//
// None of the RVP predictors store values. Dynamic RVP is a table of small
// resetting confidence counters indexed by instruction PC; the predicted
// value itself lives in the architectural register file (the previous
// value of the instruction's destination register). Compiler support is
// modelled through ReuseHints, which redirect an instruction's prediction
// source to a correlated dead/live register or to its own last value —
// exactly the transformations of Figure 2 in the paper.
package core

import (
	"fmt"

	"rvpsim/internal/isa"
	"rvpsim/internal/simerr"
)

// Kind says where a predicted value comes from.
type Kind uint8

// Prediction-source kinds.
const (
	// KindNone: no prediction.
	KindNone Kind = iota
	// KindSameReg: the prior value of the destination register.
	KindSameReg
	// KindOtherReg: the current value of a correlated register (the
	// compiler would have re-allocated so this became same-register).
	KindOtherReg
	// KindLastValue: the instruction's own previous result (the compiler
	// would have reserved the destination register across iterations).
	KindLastValue
	// KindBuffer: a value read from a hardware value table (LVP only).
	KindBuffer
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindSameReg:
		return "same-reg"
	case KindOtherReg:
		return "other-reg"
	case KindLastValue:
		return "last-value"
	case KindBuffer:
		return "buffer"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ReuseHint is profile-derived compiler knowledge about one static
// instruction: which reuse pattern register re-allocation would expose.
type ReuseHint struct {
	Kind Kind
	Reg  isa.Reg // correlated register for KindOtherReg
}

// ReuseHints maps static instruction index to its hint. Instructions
// absent from the map use plain same-register reuse.
type ReuseHints map[int]ReuseHint

// Decision is a predictor's answer at rename time.
type Decision struct {
	Predict bool
	Kind    Kind
	Reg     isa.Reg // source register for KindSameReg/KindOtherReg
	Value   uint64  // predicted value for KindBuffer
}

// Predictor is the interface the pipeline drives. Decide is consulted
// when an instruction that writes a register is renamed; Commit is called
// for every such instruction, in program order, with the value the
// predictor would have predicted (resolved by the pipeline from the
// architectural state) and the actual result.
type Predictor interface {
	// Name identifies the configuration in reports.
	Name() string
	// Decide reports whether to predict the instruction at static index
	// idx and from which source.
	Decide(idx int, in isa.Inst) Decision
	// Commit trains the predictor. predicted is meaningful only when a
	// source existed (it is the value Decide's source would have
	// supplied, whether or not the instruction was actually predicted).
	Commit(idx int, in isa.Inst, predicted, actual uint64)
	// Reset clears all dynamic state.
	Reset()
	// StorageBits is the dedicated value-prediction hardware the
	// predictor needs, in bits: values, tags, strides, histories and
	// counters. RVP's is its counters alone — the asymmetry the paper's
	// title is about.
	StorageBits() int
}

// SizeHinter is implemented by predictors whose per-static-instruction
// state can be pre-sized. The pipeline calls SizeHint(len(prog.Insts))
// before simulation so the commit path never grows a slice; predictors
// remain correct (growing on demand) when the hint is never given.
// SizeHint is idempotent and monotonic: calling it again with a smaller
// n is a no-op.
type SizeHinter interface {
	SizeHint(n int)
}

// CounterConfig configures a table of 3-bit resetting confidence counters.
type CounterConfig struct {
	Entries   int   // table entries (power of two)
	Threshold uint8 // predict when counter >= Threshold (paper: 7)
	Bits      uint8 // counter width (paper: 3)
	Tagged    bool  // tag entries with the PC (paper: untagged for RVP)
}

// DefaultCounterConfig is the paper's 1K-entry, untagged, 3-bit resetting
// counter table with threshold 7.
func DefaultCounterConfig() CounterConfig {
	return CounterConfig{Entries: 1024, Threshold: 7, Bits: 3, Tagged: false}
}

// Validate checks the configuration. Errors wrap simerr.ErrConfig.
func (c CounterConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("core: counter entries %d not a power of two: %w", c.Entries, simerr.ErrConfig)
	}
	if c.Bits == 0 || c.Bits > 8 {
		return fmt.Errorf("core: counter bits %d out of range: %w", c.Bits, simerr.ErrConfig)
	}
	if c.Threshold > uint8(1<<c.Bits-1) {
		return fmt.Errorf("core: threshold %d exceeds counter max: %w", c.Threshold, simerr.ErrConfig)
	}
	return nil
}

// CounterTable is a direct-mapped table of resetting confidence counters.
// A resetting counter increments (saturating) on reuse and resets to zero
// on no-reuse, so confidence means "the last Threshold outcomes were all
// reuse" — the conservative filter the paper uses.
type CounterTable struct {
	cfg  CounterConfig
	max  uint8
	ctr  []uint8
	tags []int32

	// Statistics (cleared by Reset, published via PublishMetrics on the
	// predictors that embed a table).
	Lookups   uint64 // Confident consultations
	Confirmed uint64 // consultations that were at/above threshold
	Resets    uint64 // training updates that reset a counter (no reuse)
	TagSteals uint64 // tagged entries stolen by an aliasing PC
}

// NewCounterTable builds a counter table. Invalid configurations are
// reported as errors wrapping simerr.ErrConfig, not panics.
func NewCounterTable(cfg CounterConfig) (*CounterTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &CounterTable{cfg: cfg, max: uint8(1<<cfg.Bits - 1), ctr: make([]uint8, cfg.Entries)}
	if cfg.Tagged {
		t.tags = make([]int32, cfg.Entries)
		for i := range t.tags {
			t.tags[i] = -1
		}
	}
	return t, nil
}

// MustCounterTable is NewCounterTable, panicking on error (tests and
// known-valid defaults).
func MustCounterTable(cfg CounterConfig) *CounterTable {
	t, err := NewCounterTable(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *CounterTable) index(pc int) int { return pc & (t.cfg.Entries - 1) }

// Confident reports whether the counter for pc has reached the threshold.
// With tags enabled, a tag mismatch is never confident.
func (t *CounterTable) Confident(pc int) bool {
	t.Lookups++
	i := t.index(pc)
	if t.cfg.Tagged && t.tags[i] != int32(pc) {
		return false
	}
	if t.ctr[i] >= t.cfg.Threshold {
		t.Confirmed++
		return true
	}
	return false
}

// Update trains the counter for pc: reuse increments (saturating), no
// reuse resets to zero. With tags, a mismatching entry is stolen and the
// counter restarts.
func (t *CounterTable) Update(pc int, reuse bool) {
	i := t.index(pc)
	if t.cfg.Tagged && t.tags[i] != int32(pc) {
		t.TagSteals++
		t.tags[i] = int32(pc)
		t.ctr[i] = 0
		if reuse {
			t.ctr[i] = 1
		}
		return
	}
	if reuse {
		if t.ctr[i] < t.max {
			t.ctr[i]++
		}
	} else {
		if t.ctr[i] != 0 {
			t.Resets++
		}
		t.ctr[i] = 0
	}
}

// Reset clears the table and its statistics.
func (t *CounterTable) Reset() {
	for i := range t.ctr {
		t.ctr[i] = 0
	}
	for i := range t.tags {
		t.tags[i] = -1
	}
	t.Lookups, t.Confirmed, t.Resets, t.TagSteals = 0, 0, 0, 0
}

// Config returns the table configuration.
func (t *CounterTable) Config() CounterConfig { return t.cfg }
