package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{IntReg(0), "r0"},
		{IntReg(31), "r31"},
		{FPReg(0), "f0"},
		{FPReg(31), "f31"},
		{RSP, "r30"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("Reg(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

func TestRegPredicates(t *testing.T) {
	if !RZero.IsZero() || !FZero.IsZero() {
		t.Error("zero registers not recognised")
	}
	if IntReg(5).IsZero() || FPReg(5).IsZero() {
		t.Error("non-zero register reported zero")
	}
	if IntReg(7).IsFP() {
		t.Error("r7 reported FP")
	}
	if !FPReg(7).IsFP() {
		t.Error("f7 not reported FP")
	}
}

func TestOpNamesRoundTrip(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		name := Op(op).String()
		got, ok := OpByName[name]
		if !ok {
			t.Fatalf("opcode %d (%s) missing from OpByName", op, name)
		}
		if got != Op(op) {
			t.Fatalf("OpByName[%q] = %v, want %v", name, got, Op(op))
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{ADD, ClassIntALU},
		{ADDI, ClassIntALU},
		{MUL, ClassIntMul},
		{DIV, ClassIntDiv},
		{LDQ, ClassLoad},
		{RVPLDQ, ClassLoad},
		{LDT, ClassLoad},
		{STQ, ClassStore},
		{STT, ClassStore},
		{BEQ, ClassBranch},
		{BR, ClassBranch},
		{JSR, ClassBranch},
		{RET, ClassBranch},
		{FADD, ClassFPAdd},
		{FMUL, ClassFPMul},
		{FDIV, ClassFPDiv},
		{CVTQT, ClassFPAdd},
		{HALT, ClassHalt},
		{NOP, ClassNop},
		{LDA, ClassIntALU},
	}
	for _, c := range cases {
		if got := Classify(c.op); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestLatencyPositive(t *testing.T) {
	for op := 0; op < NumOps; op++ {
		if l := Classify(Op(op)).Latency(); l < 1 {
			t.Errorf("latency of %v is %d, want >= 1", Op(op), l)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: ADD, Rd: 3, Ra: 4, Rb: 5},
		{Op: ADDI, Rd: 3, Ra: 4, Imm: -1},
		{Op: LDQ, Rd: 7, Ra: RSP, Imm: 1 << 20},
		{Op: STQ, Rd: 9, Ra: 2, Imm: -(1 << 20)},
		{Op: BEQ, Ra: 1, Imm: 123456},
		{Op: RVPLDQ, Rd: 12, Ra: 13, Imm: 64},
		{Op: FADD, Rd: FPReg(1), Ra: FPReg(2), Rb: FPReg(3)},
		{Op: HALT},
		{Op: LDA, Rd: 1, Ra: RZero, Imm: ImmMax},
		{Op: LDA, Rd: 1, Ra: RZero, Imm: ImmMin},
	}
	for _, in := range insts {
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in, err)
		}
		got, err := Decode(w)
		if err != nil {
			t.Fatalf("Decode(%#x): %v", w, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	if _, err := Encode(Inst{Op: LDA, Rd: 1, Imm: ImmMax + 1}); err == nil {
		t.Error("Encode accepted an immediate above ImmMax")
	}
	if _, err := Encode(Inst{Op: LDA, Rd: 1, Imm: ImmMin - 1}); err == nil {
		t.Error("Encode accepted an immediate below ImmMin")
	}
	if _, err := Encode(Inst{Op: Op(200), Rd: 1}); err == nil {
		t.Error("Encode accepted an invalid opcode")
	}
	if _, err := Decode(uint64(200) << 56); err == nil {
		t.Error("Decode accepted an invalid opcode")
	}
}

// TestEncodeDecodeProperty drives the round trip with randomly generated
// valid instructions.
func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		in := Inst{
			Op:  Op(rng.Intn(NumOps)),
			Rd:  Reg(rng.Intn(NumRegs)),
			Ra:  Reg(rng.Intn(NumRegs)),
			Rb:  Reg(rng.Intn(NumRegs)),
			Imm: rng.Int63n(ImmMax-ImmMin+1) + ImmMin,
		}
		w, err := Encode(in)
		if err != nil {
			return false
		}
		got, err := Decode(w)
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSourcesAndDest(t *testing.T) {
	cases := []struct {
		in      Inst
		srcs    []Reg
		dest    Reg
		writes  bool
		example string
	}{
		{Inst{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, []Reg{2, 3}, 1, true, "add"},
		{Inst{Op: ADDI, Rd: 1, Ra: 2, Imm: 5}, []Reg{2}, 1, true, "addi"},
		{Inst{Op: LDQ, Rd: 1, Ra: 2}, []Reg{2}, 1, true, "ldq"},
		{Inst{Op: STQ, Rd: 1, Ra: 2}, []Reg{1, 2}, RZero, false, "stq"},
		{Inst{Op: BEQ, Ra: 4, Imm: 10}, []Reg{4}, RZero, false, "beq"},
		{Inst{Op: BR, Rd: RZero, Imm: 10}, nil, RZero, false, "br"},
		{Inst{Op: JSR, Rd: RRA, Ra: 5}, []Reg{5}, RRA, true, "jsr"},
		{Inst{Op: RET, Ra: RRA}, []Reg{RRA}, RZero, false, "ret"},
		{Inst{Op: ADD, Rd: RZero, Ra: 1, Rb: 2}, []Reg{1, 2}, RZero, false, "add->r31"},
		{Inst{Op: HALT}, nil, RZero, false, "halt"},
		{Inst{Op: FADD, Rd: FPReg(1), Ra: FPReg(2), Rb: FPReg(3)}, []Reg{FPReg(2), FPReg(3)}, FPReg(1), true, "fadd"},
	}
	for _, c := range cases {
		got := c.in.Sources(nil)
		if len(got) != len(c.srcs) {
			t.Errorf("%s: Sources = %v, want %v", c.example, got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%s: Sources = %v, want %v", c.example, got, c.srcs)
				break
			}
		}
		d, ok := c.in.Dest()
		if ok != c.writes {
			t.Errorf("%s: WritesReg = %v, want %v", c.example, ok, c.writes)
		}
		if ok && d != c.dest {
			t.Errorf("%s: Dest = %v, want %v", c.example, d, c.dest)
		}
	}
}

func TestBranchPredicates(t *testing.T) {
	for _, op := range []Op{BEQ, BNE, BLT, BGE, BGT, BLE, FBEQ, FBNE} {
		if !IsCondBranch(op) {
			t.Errorf("IsCondBranch(%v) = false", op)
		}
	}
	for _, op := range []Op{BR, JSR, RET} {
		if IsCondBranch(op) {
			t.Errorf("IsCondBranch(%v) = true", op)
		}
	}
	if IsCondBranch(ADD) {
		t.Error("ADD classified as branch")
	}
}

func TestDisassemblyForms(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Inst{Op: ADDI, Rd: 1, Ra: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: LDQ, Rd: 1, Ra: 2, Imm: 16}, "ldq r1, 16(r2)"},
		{Inst{Op: STQ, Rd: 1, Ra: 2, Imm: 8}, "stq r1, 8(r2)"},
		{Inst{Op: BEQ, Ra: 3, Imm: 42}, "beq r3, 42"},
		{Inst{Op: BR, Imm: 7}, "br 7"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: RVPLDQ, Rd: 4, Ra: 5, Imm: 0}, "rvp_ldq r4, 0(r5)"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
