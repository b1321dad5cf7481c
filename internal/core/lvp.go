package core

import (
	"fmt"

	"rvpsim/internal/isa"
	"rvpsim/internal/simerr"
)

// LVPConfig configures the last-value prediction baseline.
type LVPConfig struct {
	Entries   int   // value table entries (paper: 1K)
	Threshold uint8 // resetting-counter confidence threshold (paper: 7)
	Bits      uint8 // counter width (paper: 3)
	Tagged    bool  // tag entries with the PC (paper: tagged; it helps LVP)
	LoadOnly  bool  // predict loads only
}

// DefaultLVPConfig is the paper's 1K-entry, tagged last-value table with
// 3-bit resetting counters and threshold 7.
func DefaultLVPConfig() LVPConfig {
	return LVPConfig{Entries: 1024, Threshold: 7, Bits: 3, Tagged: true}
}

// Validate checks the configuration. Errors wrap simerr.ErrConfig.
func (c LVPConfig) Validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("core: lvp entries %d not a power of two: %w", c.Entries, simerr.ErrConfig)
	}
	if c.Bits == 0 || c.Bits > 8 || c.Threshold > uint8(1<<c.Bits-1) {
		return fmt.Errorf("core: lvp counter bits/threshold invalid: %w", simerr.ErrConfig)
	}
	return nil
}

// LVP is the buffer-based last-value predictor of Lipasti & Shen, sized
// per the paper's baseline: a direct-mapped table storing the last value
// each (tagged) instruction produced plus a resetting confidence counter.
// Unlike RVP it needs 8 bytes of value storage per entry plus tags.
type LVP struct {
	name   string
	cfg    LVPConfig
	max    uint8
	values []uint64
	tags   []int32
	ctr    []uint8

	elig []uint8 // per-static-instruction eligibility memo (SizeHint)

	// Statistics (cleared by Reset).
	Decides   uint64 // Decide consultations on eligible instructions
	TagMisses uint64 // consultations that missed on the tag
	TagSteals uint64 // entries stolen at training time
}

// NewLVP builds the predictor. Invalid configurations are reported as
// errors wrapping simerr.ErrConfig.
func NewLVP(cfg LVPConfig, name string) (*LVP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &LVP{
		name:   name,
		cfg:    cfg,
		max:    uint8(1<<cfg.Bits - 1),
		values: make([]uint64, cfg.Entries),
		ctr:    make([]uint8, cfg.Entries),
	}
	if cfg.Tagged {
		p.tags = make([]int32, cfg.Entries)
		for i := range p.tags {
			p.tags[i] = -1
		}
	}
	return p, nil
}

// MustLVP is NewLVP, panicking on error (tests and known-valid defaults).
func MustLVP(cfg LVPConfig, name string) *LVP {
	p, err := NewLVP(cfg, name)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements Predictor.
func (p *LVP) Name() string { return p.name }

func (p *LVP) index(pc int) int { return pc & (p.cfg.Entries - 1) }

// SizeHint implements SizeHinter: sizes the eligibility memo.
func (p *LVP) SizeHint(n int) {
	if n > 0 && len(p.elig) < n {
		p.elig = make([]uint8, n)
	}
}

func (p *LVP) eligibleSlow(in isa.Inst) bool {
	if !in.WritesReg() {
		return false
	}
	if p.cfg.LoadOnly {
		return isa.IsLoad(in.Op)
	}
	return isa.Classify(in.Op) != isa.ClassBranch
}

func (p *LVP) eligible(idx int, in isa.Inst) bool {
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

// Decide implements Predictor: predict the stored value when the entry
// matches (tagged) and the counter is confident.
func (p *LVP) Decide(idx int, in isa.Inst) Decision {
	if !p.eligible(idx, in) {
		return Decision{}
	}
	p.Decides++
	i := p.index(idx)
	if p.cfg.Tagged && p.tags[i] != int32(idx) {
		p.TagMisses++
		return Decision{Kind: KindBuffer}
	}
	d := Decision{Kind: KindBuffer, Value: p.values[i]}
	if p.ctr[i] >= p.cfg.Threshold {
		d.Predict = true
	}
	return d
}

// PredictedValue returns the value the table currently holds for idx (used
// by the pipeline to resolve KindBuffer predictions at rename time).
func (p *LVP) PredictedValue(idx int) uint64 { return p.values[p.index(idx)] }

// Commit implements Predictor: train with the committed value. The
// "predicted" argument is ignored — LVP's notion of reuse is its own
// stored value, which may differ from the rename-time snapshot when an
// intervening dynamic instance updated the entry.
func (p *LVP) Commit(idx int, in isa.Inst, predicted, actual uint64) {
	if !p.eligible(idx, in) {
		return
	}
	i := p.index(idx)
	if p.cfg.Tagged && p.tags[i] != int32(idx) {
		// Steal the entry: new instruction, fresh history.
		p.TagSteals++
		p.tags[i] = int32(idx)
		p.values[i] = actual
		p.ctr[i] = 0
		return
	}
	if p.values[i] == actual {
		if p.ctr[i] < p.max {
			p.ctr[i]++
		}
	} else {
		p.ctr[i] = 0
	}
	p.values[i] = actual
}

// Reset implements Predictor.
func (p *LVP) Reset() {
	for i := range p.values {
		p.values[i] = 0
		p.ctr[i] = 0
	}
	for i := range p.tags {
		p.tags[i] = -1
	}
	for i := range p.elig {
		p.elig[i] = eligUnknown
	}
	p.Decides, p.TagMisses, p.TagSteals = 0, 0, 0
}

// Config returns the configuration.
func (p *LVP) Config() LVPConfig { return p.cfg }

// StorageBits implements Predictor: the value storage the paper's RVP
// eliminates. Values are 64 bits per entry, tags (when present) are
// modelled at 20 bits, plus the counter bits.
func (p *LVP) StorageBits() int {
	bits := p.cfg.Entries * (64 + int(p.cfg.Bits))
	if p.cfg.Tagged {
		bits += p.cfg.Entries * 20
	}
	return bits
}
