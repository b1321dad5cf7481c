package core

import (
	"testing"
	"testing/quick"

	"rvpsim/internal/isa"
)

func TestCounterTableResetting(t *testing.T) {
	tab := MustCounterTable(CounterConfig{Entries: 16, Threshold: 7, Bits: 3})
	pc := 5
	for i := 0; i < 6; i++ {
		tab.Update(pc, true)
		if tab.Confident(pc) {
			t.Fatalf("confident after %d reuses", i+1)
		}
	}
	tab.Update(pc, true)
	if !tab.Confident(pc) {
		t.Fatal("not confident after 7 consecutive reuses")
	}
	// Saturation: further reuse keeps it confident.
	tab.Update(pc, true)
	if !tab.Confident(pc) {
		t.Fatal("lost confidence while saturated")
	}
	// One miss resets completely.
	tab.Update(pc, false)
	if tab.Confident(pc) {
		t.Fatal("confident after reset")
	}
	tab.Update(pc, true)
	if tab.Confident(pc) {
		t.Fatal("resetting counter did not restart from zero")
	}
}

func TestCounterTableUntaggedInterference(t *testing.T) {
	// Two PCs aliasing to the same entry. Positive interference: both
	// exhibit reuse, so the shared counter stays confident for both —
	// the effect the paper exploits with untagged RVP counters.
	tab := MustCounterTable(CounterConfig{Entries: 16, Threshold: 7, Bits: 3})
	a, b := 3, 3+16
	for i := 0; i < 7; i++ {
		tab.Update(a, true)
		tab.Update(b, true)
	}
	if !tab.Confident(a) || !tab.Confident(b) {
		t.Fatal("positive interference not exploited")
	}
}

func TestCounterTableTagged(t *testing.T) {
	tab := MustCounterTable(CounterConfig{Entries: 16, Threshold: 7, Bits: 3, Tagged: true})
	a, b := 3, 3+16
	for i := 0; i < 8; i++ {
		tab.Update(a, true)
	}
	if !tab.Confident(a) {
		t.Fatal("tagged counter not confident for owner")
	}
	// Alias with a different PC: never confident, and stealing resets.
	if tab.Confident(b) {
		t.Fatal("tag mismatch reported confident")
	}
	tab.Update(b, true)
	if tab.Confident(b) || tab.Confident(a) {
		t.Fatal("stolen entry retained confidence")
	}
}

func TestCounterConfigValidate(t *testing.T) {
	bad := []CounterConfig{
		{Entries: 0, Threshold: 7, Bits: 3},
		{Entries: 100, Threshold: 7, Bits: 3},
		{Entries: 16, Threshold: 9, Bits: 3},
		{Entries: 16, Threshold: 1, Bits: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d validated", i)
		}
	}
	if err := DefaultCounterConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestCounterNeverConfidentWithoutThresholdRun is a property test: after
// any sequence ending in a non-reuse, confidence requires at least
// Threshold consecutive subsequent reuses.
func TestCounterNeverConfidentWithoutThresholdRun(t *testing.T) {
	f := func(seq []bool) bool {
		tab := MustCounterTable(CounterConfig{Entries: 4, Threshold: 7, Bits: 3})
		run := 0
		for _, reuse := range seq {
			tab.Update(9, reuse)
			if reuse {
				run++
			} else {
				run = 0
			}
			if tab.Confident(9) != (run >= 7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func ldq(rd, ra isa.Reg) isa.Inst  { return isa.Inst{Op: isa.LDQ, Rd: rd, Ra: ra} }
func addi(rd, ra isa.Reg) isa.Inst { return isa.Inst{Op: isa.ADDI, Rd: rd, Ra: ra, Imm: 1} }

func TestDynamicRVPWarmupAndPredict(t *testing.T) {
	p := MustDynamicRVP(DefaultCounterConfig())
	in := ldq(3, 4)
	for i := 0; i < 7; i++ {
		if d := p.Decide(10, in); d.Predict {
			t.Fatalf("predicted before warm-up (iteration %d)", i)
		}
		p.Commit(10, in, 42, 42) // same-register reuse observed
	}
	d := p.Decide(10, in)
	if !d.Predict || d.Kind != KindSameReg || d.Reg != 3 {
		t.Fatalf("decision = %+v, want same-reg predict of r3", d)
	}
	// A wrong outcome resets confidence.
	p.Commit(10, in, 42, 43)
	if p.Decide(10, in).Predict {
		t.Fatal("still predicting after reset")
	}
}

func TestDynamicRVPLoadOnly(t *testing.T) {
	p := MustDynamicRVP(DefaultCounterConfig(), LoadsOnly())
	add := addi(3, 4)
	for i := 0; i < 10; i++ {
		p.Commit(11, add, 1, 1)
	}
	if p.Decide(11, add).Predict {
		t.Fatal("loads-only predictor predicted an add")
	}
	if p.Decide(11, add).Kind != KindNone {
		t.Fatal("ineligible instruction got a source kind")
	}
}

func TestDynamicRVPHints(t *testing.T) {
	hints := ReuseHints{
		20: {Kind: KindOtherReg, Reg: 9},
		21: {Kind: KindLastValue},
	}
	p := MustDynamicRVP(DefaultCounterConfig(), WithHints(hints))
	in := ldq(3, 4)
	d := p.Decide(20, in)
	if d.Kind != KindOtherReg || d.Reg != 9 {
		t.Fatalf("hinted decision = %+v", d)
	}
	// Last-value hint: the pipeline supplies the previous result, so the
	// decision carries only the kind (TestLastValuePredictionTracksRepeats
	// in internal/pipeline checks the value).
	if d = p.Decide(21, in); d.Kind != KindLastValue || d.Value != 0 {
		t.Fatalf("lv decision = %+v", d)
	}
}

func TestDynamicRVPIgnoresNonWriters(t *testing.T) {
	p := MustDynamicRVP(DefaultCounterConfig())
	st := isa.Inst{Op: isa.STQ, Rd: 1, Ra: 2}
	if d := p.Decide(5, st); d.Predict || d.Kind != KindNone {
		t.Fatalf("store decision = %+v", d)
	}
	br := isa.Inst{Op: isa.BR, Rd: isa.RRA, Imm: 3}
	if d := p.Decide(6, br); d.Predict || d.Kind != KindNone {
		t.Fatalf("branch decision = %+v", d)
	}
}

func TestStaticRVPMarkedOnly(t *testing.T) {
	marked := map[int]bool{7: true}
	p := NewStaticRVP("srvp", marked, nil)
	in := ldq(3, 4)
	if !p.Decide(7, in).Predict {
		t.Fatal("marked load not predicted")
	}
	if p.Decide(8, in).Predict {
		t.Fatal("unmarked load predicted")
	}
	// Static prediction is unconditional: stays on even after misses.
	p.Commit(7, in, 1, 2)
	if !p.Decide(7, in).Predict {
		t.Fatal("static prediction disabled by a miss")
	}
}

func TestGabbayInterference(t *testing.T) {
	// Two instructions writing the same register share a counter: if one
	// has reuse and the other does not, neither gets predicted — the
	// interference the paper demonstrates against.
	p := MustGabbayRVP(DefaultCounterConfig(), false)
	a := ldq(3, 4)  // always reuses
	b := addi(3, 5) // never reuses
	for i := 0; i < 20; i++ {
		p.Commit(1, a, 9, 9)
		p.Commit(2, b, 1, 2)
	}
	if p.Decide(1, a).Predict {
		t.Fatal("register-indexed counter survived interference")
	}
	// Alone, the same training makes it confident.
	p2 := MustGabbayRVP(DefaultCounterConfig(), false)
	for i := 0; i < 8; i++ {
		p2.Commit(1, a, 9, 9)
	}
	if !p2.Decide(1, a).Predict {
		t.Fatal("register-indexed counter did not learn without interference")
	}
}

func TestLVPPredictsLastValue(t *testing.T) {
	p := MustLVP(DefaultLVPConfig(), "lvp")
	in := ldq(3, 4)
	// First commit installs the entry; seven consecutive hits follow.
	for i := 0; i < 8; i++ {
		p.Commit(30, in, 0, 1234)
	}
	d := p.Decide(30, in)
	if !d.Predict || d.Kind != KindBuffer || d.Value != 1234 {
		t.Fatalf("decision = %+v, want buffer value 1234", d)
	}
	// Value change resets the counter and updates the stored value.
	p.Commit(30, in, 0, 99)
	d = p.Decide(30, in)
	if d.Predict {
		t.Fatal("predicting right after value change")
	}
	if d.Value != 99 {
		t.Fatalf("stored value = %d, want 99", d.Value)
	}
}

func TestLVPTagStealing(t *testing.T) {
	cfg := DefaultLVPConfig()
	cfg.Entries = 16
	p := MustLVP(cfg, "lvp")
	a, b := 3, 3+16 // alias
	for i := 0; i < 8; i++ {
		p.Commit(a, ldq(1, 2), 0, 10)
	}
	if !p.Decide(a, ldq(1, 2)).Predict {
		t.Fatal("owner not confident")
	}
	// b steals the entry; a loses it.
	p.Commit(b, ldq(1, 2), 0, 20)
	if p.Decide(a, ldq(1, 2)).Predict {
		t.Fatal("a still predicts after entry stolen")
	}
	if p.Decide(b, ldq(1, 2)).Predict {
		t.Fatal("b confident immediately after stealing")
	}
}

func TestLVPStorageBits(t *testing.T) {
	p := MustLVP(DefaultLVPConfig(), "lvp")
	// 1K entries x (64 value + 3 counter + 20 tag) bits.
	want := 1024 * (64 + 3 + 20)
	if got := p.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
}

func TestNoPredictor(t *testing.T) {
	var p NoPredictor
	if p.Name() != "no_predict" {
		t.Error("name wrong")
	}
	if d := p.Decide(1, ldq(1, 2)); d.Predict {
		t.Error("NoPredictor predicted")
	}
}

func TestPredictorsImplementInterface(t *testing.T) {
	var _ Predictor = MustDynamicRVP(DefaultCounterConfig())
	var _ Predictor = NewStaticRVP("s", nil, nil)
	var _ Predictor = MustGabbayRVP(DefaultCounterConfig(), true)
	var _ Predictor = MustLVP(DefaultLVPConfig(), "lvp")
	var _ Predictor = NoPredictor{}
}

func TestResets(t *testing.T) {
	d := MustDynamicRVP(DefaultCounterConfig())
	in := ldq(3, 4)
	for i := 0; i < 8; i++ {
		d.Commit(1, in, 5, 5)
	}
	if !d.Decide(1, in).Predict {
		t.Fatal("not trained")
	}
	d.Reset()
	if d.Decide(1, in).Predict {
		t.Fatal("Reset did not clear counters")
	}
	l := MustLVP(DefaultLVPConfig(), "lvp")
	for i := 0; i < 8; i++ {
		l.Commit(1, in, 5, 5)
	}
	l.Reset()
	if l.Decide(1, in).Predict {
		t.Fatal("LVP Reset did not clear state")
	}
}
