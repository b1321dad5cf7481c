package core

import (
	"testing"

	"rvpsim/internal/isa"
)

// The dense per-static-instruction state (the hint and mark tables
// SizeHint expands) is an internal layout choice and must stay invisible
// to behaviour: a predictor pre-sized with SizeHint and one reading its
// maps must decide identically after the same history. This test pins
// that down for every SizeHinter predictor.

// denseHintsFixture redirects some instructions to a correlated register
// and others to their own last value, so both dense hint paths run.
var denseHintsFixture = ReuseHints{
	3:  {Kind: KindOtherReg, Reg: 9},
	7:  {Kind: KindLastValue},
	40: {Kind: KindLastValue},
	41: {Kind: KindOtherReg, Reg: 12},
}

// densePairs builds two identically configured instances per predictor;
// callers hint one and leave the other on its maps.
func densePairs() map[string][2]Predictor {
	marked := map[int]bool{1: true, 5: true, 7: true, 40: true, 41: true}
	return map[string][2]Predictor{
		"dynamic": {
			MustDynamicRVP(DefaultCounterConfig()),
			MustDynamicRVP(DefaultCounterConfig()),
		},
		"dynamic-loads": {
			MustDynamicRVP(DefaultCounterConfig(), LoadsOnly()),
			MustDynamicRVP(DefaultCounterConfig(), LoadsOnly()),
		},
		"dynamic-hints": {
			MustDynamicRVP(DefaultCounterConfig(), WithHints(denseHintsFixture)),
			MustDynamicRVP(DefaultCounterConfig(), WithHints(denseHintsFixture)),
		},
		"static": {
			NewStaticRVP("s", marked, denseHintsFixture),
			NewStaticRVP("s", marked, denseHintsFixture),
		},
	}
}

// driveLockstep feeds both predictors the same pseudo-random history,
// failing on any Decide divergence along the way. Like a real program
// (and like the pipeline that hosts these predictors), each static
// index maps to one fixed instruction, while execution order and values
// are random.
func driveLockstep(t *testing.T, name string, a, b Predictor, seed uint64, steps int) {
	t.Helper()
	ops := []isa.Op{isa.ADD, isa.LDQ, isa.STQ, isa.MUL, isa.LDT, isa.NOP}
	rng := &propRNG{s: seed}
	prog := make([]isa.Inst, 64)
	for i := range prog {
		prog[i] = isa.Inst{Op: ops[rng.intn(len(ops))], Rd: isa.Reg(rng.intn(30)), Ra: isa.Reg(rng.intn(30))}
	}
	for step := 0; step < steps; step++ {
		idx := rng.intn(len(prog))
		in := prog[idx]
		da, db := a.Decide(idx, in), b.Decide(idx, in)
		if da != db {
			t.Fatalf("%s: step %d: Decide diverged: %+v vs %+v", name, step, da, db)
		}
		val := rng.next() % 8
		a.Commit(idx, in, da.Value, val)
		b.Commit(idx, in, db.Value, val)
	}
}

// TestSizeHintLockstep: a predictor reading the dense tables SizeHint
// built decides exactly as one reading the hint and mark maps.
func TestSizeHintLockstep(t *testing.T) {
	for name, pair := range densePairs() {
		hinted, bare := pair[0], pair[1]
		hinted.(SizeHinter).SizeHint(256)
		driveLockstep(t, name, hinted, bare, 42, 4000)
	}
}
