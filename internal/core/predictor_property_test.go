package core

import (
	"testing"

	"rvpsim/internal/isa"
)

// xorshift for the property drivers (deterministic, no math/rand state).
type propRNG struct{ s uint64 }

func (r *propRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

func (r *propRNG) intn(n int) int { return int(r.next() >> 33 % uint64(n)) }

// TestPredictorsNeverPredictIneligible drives every predictor with random
// instruction kinds and values and asserts structural invariants:
// ineligible instructions are never predicted, Decide is read-only (two
// calls agree), and Reset returns to the cold state.
func TestPredictorsNeverPredictIneligible(t *testing.T) {
	mk := []func() Predictor{
		func() Predictor { return MustDynamicRVP(DefaultCounterConfig()) },
		func() Predictor { return MustDynamicRVP(DefaultCounterConfig(), LoadsOnly()) },
		func() Predictor { return MustLVP(DefaultLVPConfig(), "lvp") },
		func() Predictor { return MustGabbayRVP(DefaultCounterConfig(), false) },
		func() Predictor { return MustStridePredictor(DefaultStrideConfig()) },
		func() Predictor { return MustContextPredictor(DefaultContextConfig()) },
		func() Predictor { return NewStaticRVP("s", map[int]bool{1: true, 5: true}, nil) },
	}
	ops := []isa.Op{isa.ADD, isa.LDQ, isa.STQ, isa.BEQ, isa.MUL, isa.LDT, isa.HALT, isa.NOP, isa.BR}
	for mi, make := range mk {
		p := make()
		rng := &propRNG{s: uint64(mi + 1)}
		for step := 0; step < 5000; step++ {
			idx := rng.intn(64)
			op := ops[rng.intn(len(ops))]
			in := isa.Inst{Op: op, Rd: isa.Reg(rng.intn(30)), Ra: isa.Reg(rng.intn(30))}
			d1 := p.Decide(idx, in)
			d2 := p.Decide(idx, in)
			if d1 != d2 {
				t.Fatalf("predictor %d: Decide not idempotent", mi)
			}
			if d1.Predict && !in.WritesReg() {
				t.Fatalf("predictor %d: predicted non-writing %v", mi, in)
			}
			if d1.Predict && isa.Classify(op) == isa.ClassBranch {
				t.Fatalf("predictor %d: predicted branch", mi)
			}
			val := rng.next() % 8 // small value space: reuse happens
			p.Commit(idx, in, d1.Value, val)
		}
		p.Reset()
		// After reset, dynamic predictors must be cold again (static RVP
		// keeps its marked set by design).
		if _, isStatic := p.(*StaticRVP); !isStatic {
			for idx := 0; idx < 64; idx++ {
				if p.Decide(idx, isa.Inst{Op: isa.LDQ, Rd: 3, Ra: 4}).Predict {
					t.Fatalf("predictor %d: predicts immediately after Reset", mi)
				}
			}
		}
	}
}

// TestCounterTableMatchesReference cross-checks the counter table against
// a simple reference model over random update streams.
func TestCounterTableMatchesReference(t *testing.T) {
	tab := MustCounterTable(CounterConfig{Entries: 8, Threshold: 5, Bits: 3})
	ref := make(map[int]uint8)
	rng := &propRNG{s: 42}
	for step := 0; step < 20000; step++ {
		pc := rng.intn(24) // aliases 3:1 onto 8 entries
		slot := pc & 7
		reuse := rng.intn(2) == 0
		if got, want := tab.Confident(pc), ref[slot] >= 5; got != want {
			t.Fatalf("step %d: Confident(%d) = %v, reference %v", step, pc, got, want)
		}
		tab.Update(pc, reuse)
		if reuse {
			if ref[slot] < 7 {
				ref[slot]++
			}
		} else {
			ref[slot] = 0
		}
	}
}

// TestLVPMatchesReference cross-checks the LVP table against a reference
// model with tags.
func TestLVPMatchesReference(t *testing.T) {
	cfg := LVPConfig{Entries: 8, Threshold: 3, Bits: 3, Tagged: true}
	p := MustLVP(cfg, "lvp")
	type entry struct {
		tag  int
		val  uint64
		ctr  uint8
		live bool
	}
	ref := make([]entry, 8)
	rng := &propRNG{s: 7}
	in := isa.Inst{Op: isa.LDQ, Rd: 3, Ra: 4}
	for step := 0; step < 20000; step++ {
		idx := rng.intn(24)
		slot := idx & 7
		d := p.Decide(idx, in)
		e := ref[slot]
		wantPredict := e.live && e.tag == idx && e.ctr >= 3
		if d.Predict != wantPredict {
			t.Fatalf("step %d: Predict = %v, reference %v", step, d.Predict, wantPredict)
		}
		if wantPredict && d.Value != e.val {
			t.Fatalf("step %d: value %d, reference %d", step, d.Value, e.val)
		}
		actual := rng.next() % 4
		p.Commit(idx, in, d.Value, actual)
		if e.live && e.tag == idx {
			if e.val == actual {
				if e.ctr < 7 {
					e.ctr++
				}
			} else {
				e.ctr = 0
			}
			e.val = actual
		} else {
			e = entry{tag: idx, val: actual, live: true}
		}
		ref[slot] = e
	}
}

// TestEligibleMatchesRule checks the per-opcode eligibility table against
// the rule it was built from, for every opcode with a zero and a
// non-zero destination and for both loads-only settings.
func TestEligibleMatchesRule(t *testing.T) {
	for op := range 256 {
		for _, rd := range []isa.Reg{isa.RZero, isa.FZero, 3, isa.FPBase + 4} {
			in := isa.Inst{Op: isa.Op(op), Rd: rd}
			for _, loadsOnly := range []bool{false, true} {
				want := in.WritesReg() && isa.Classify(in.Op) != isa.ClassBranch
				if loadsOnly {
					want = in.WritesReg() && isa.IsLoad(in.Op)
				}
				if got := eligible(in, loadsOnly); got != want {
					t.Errorf("eligible(%v rd=%v, loadsOnly=%v) = %v, want %v", in.Op, rd, loadsOnly, got, want)
				}
			}
		}
	}
}
