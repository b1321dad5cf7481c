package program_test

import (
	"testing"

	"rvpsim/internal/asm"
	"rvpsim/internal/isa"
	"rvpsim/internal/program"
)

// nestedLoops has an outer loop over r1 and an inner loop over r2.
const nestedLoops = `
.text
.proc main
main:
        li      r1, 10
outer:
        li      r2, 5
inner:
        subi    r2, r2, 1
        bne     r2, inner
        subi    r1, r1, 1
        bne     r1, outer
        halt
.endproc
`

func mustAsm(t *testing.T, src string) *program.Program {
	t.Helper()
	p, err := asm.Assemble("t", src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCFGBlocks(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	g := program.BuildCFG(p, &p.Procs[0])
	// Expected blocks: [li r1] [li r2] [subi r2; bne] [subi r1; bne] [halt]
	if len(g.Blocks) != 5 {
		t.Fatalf("got %d blocks, want 5: %+v", len(g.Blocks), g.Blocks)
	}
	// Block containing the inner bne must have two successors: inner head
	// and the following block.
	b := g.Blocks[g.BlockOf(p.Labels["inner"])]
	if len(b.Succs) != 2 {
		t.Errorf("inner block succs = %v, want 2", b.Succs)
	}
	// halt block has no successors.
	hb := g.Blocks[len(g.Blocks)-1]
	if len(hb.Succs) != 0 {
		t.Errorf("halt block has succs %v", hb.Succs)
	}
}

func TestNaturalLoopsNesting(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	g := program.BuildCFG(p, &p.Procs[0])
	loops := g.NaturalLoops()
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	var inner, outer *program.Loop
	for i := range loops {
		if loops[i].Depth == 2 {
			inner = &loops[i]
		} else if loops[i].Depth == 1 {
			outer = &loops[i]
		}
	}
	if inner == nil || outer == nil {
		t.Fatalf("loop depths wrong: %+v", loops)
	}
	if len(inner.Blocks) >= len(outer.Blocks) {
		t.Errorf("inner loop (%d blocks) not smaller than outer (%d)", len(inner.Blocks), len(outer.Blocks))
	}
	// The inner subi instruction belongs to the inner loop.
	li := g.InnermostLoop(loops, p.Labels["inner"])
	if li == -1 || loops[li].Depth != 2 {
		t.Errorf("InnermostLoop(inner subi) = %d", li)
	}
	// The outer subi belongs only to the outer loop.
	oi := g.InnermostLoop(loops, p.Labels["inner"]+2)
	if oi == -1 || loops[oi].Depth != 1 {
		t.Errorf("InnermostLoop(outer subi) = %d (depth %d)", oi, loops[oi].Depth)
	}
}

func TestDominators(t *testing.T) {
	// Diamond: entry -> (a | b) -> join.
	src := `
.text
.proc main
main:
        beq r1, elsebr
        addi r2, r2, 1
        jmp join
elsebr:
        addi r2, r2, 2
join:
        halt
.endproc
`
	p := mustAsm(t, src)
	g := program.BuildCFG(p, &p.Procs[0])
	idom := g.Dominators()
	entry := g.BlockOf(0)
	join := g.BlockOf(p.Labels["join"])
	if idom[join] != entry {
		t.Errorf("idom(join) = %d, want entry %d", idom[join], entry)
	}
}

func TestLivenessStraightLine(t *testing.T) {
	src := `
.text
.proc main
main:
        add r1, r2, r3
        add r4, r1, r1
        add r1, r4, r4
        halt
.endproc
`
	p := mustAsm(t, src)
	g := program.BuildCFG(p, &p.Procs[0])
	l := program.ComputeLiveness(p, g)
	// After inst 0, r1 is live (read by inst 1).
	if !l.LiveOut(0).Has(1) {
		t.Error("r1 not live after its definition")
	}
	// After inst 1, r1's old value is dead (redefined at 2 before any read).
	if !l.DeadAt(1, isa.Reg(1)) {
		t.Error("r1 should be dead after inst 1")
	}
	// r4 is live after inst 1 (read at inst 2).
	if l.DeadAt(1, isa.Reg(4)) {
		t.Error("r4 should be live after inst 1")
	}
	// Zero register is never dead.
	if l.DeadAt(0, isa.RZero) {
		t.Error("r31 reported dead")
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	src := `
.text
.proc main
main:
        li r1, 10
        clr r2
loop:
        add r2, r2, r1
        subi r1, r1, 1
        bne r1, loop
        halt
.endproc
`
	p := mustAsm(t, src)
	g := program.BuildCFG(p, &p.Procs[0])
	l := program.ComputeLiveness(p, g)
	// r2 is live-out at the bne (loop-carried accumulator read next iter).
	bne := p.Labels["loop"] + 2
	if !l.LiveOut(bne).Has(2) {
		t.Error("loop-carried r2 not live at the back edge")
	}
	if !l.LiveOut(bne).Has(1) {
		t.Error("loop counter r1 not live at the back edge")
	}
}

func TestLivenessCallConventions(t *testing.T) {
	src := `
.text
.proc main
main:
        li r16, 1
        li r9, 7
        lda r5, fn
        jsr (r5)
        add r3, r9, r0
        halt
.endproc
.proc fn
fn:
        add r0, r16, r16
        ret
.endproc
`
	p := mustAsm(t, src)
	g := program.BuildCFG(p, &p.Procs[0])
	l := program.ComputeLiveness(p, g)
	jsr := 3
	// Argument register r16 is live right before the call.
	if !l.LiveIn(jsr).Has(16) {
		t.Error("arg reg r16 not live before jsr")
	}
	// Nonvolatile r9 survives the call: live before and after.
	if !l.LiveOut(jsr).Has(9) {
		t.Error("nonvolatile r9 not live across the call")
	}
	// Volatile r5 is clobbered by the call (dead after).
	if l.LiveOut(jsr).Has(5) {
		t.Error("volatile r5 live after the call")
	}
	// In fn, the return value r0 is live at ret.
	g2 := program.BuildCFG(p, &p.Procs[1])
	l2 := program.ComputeLiveness(p, g2)
	ret := p.Procs[1].Start + 1
	if !l2.LiveIn(ret).Has(isa.RV) {
		t.Error("return value not live at ret")
	}
}

func TestProcAtAndClone(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	if pr := p.ProcAt(0); pr == nil || pr.Name != "main" {
		t.Errorf("ProcAt(0) = %v", pr)
	}
	if pr := p.ProcAt(len(p.Insts)); pr != nil {
		t.Errorf("ProcAt(end) = %v, want nil", pr)
	}
	c := p.Clone()
	c.Insts[0].Imm = 99
	if p.Insts[0].Imm == 99 {
		t.Error("Clone shares instruction storage")
	}
}

func TestPCIndexRoundTrip(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	for i := range p.Insts {
		if got := p.Index(p.PC(i)); got != i {
			t.Fatalf("Index(PC(%d)) = %d", i, got)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	bad := p.Clone()
	bad.Insts[3].Imm = 1 << 30 // branch target out of range
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted out-of-range branch")
	}
	bad2 := p.Clone()
	bad2.Entry = -1
	if err := bad2.Validate(); err == nil {
		t.Error("Validate accepted bad entry")
	}
	bad3 := p.Clone()
	bad3.Procs = append(bad3.Procs, program.Procedure{Name: "x", Start: 0, End: 2})
	if err := bad3.Validate(); err == nil {
		t.Error("Validate accepted overlapping procedures")
	}
}

func TestRegSet(t *testing.T) {
	var s program.RegSet
	s.Add(3)
	s.Add(isa.FPReg(4))
	if !s.Has(3) || !s.Has(isa.FPReg(4)) || s.Has(5) {
		t.Error("RegSet membership wrong")
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d, want 2", s.Count())
	}
	s.Remove(3)
	if s.Has(3) || s.Count() != 1 {
		t.Error("Remove failed")
	}
}

// TestAnalyseFallsBackToWholeProgram: without declared procedures the
// analysis covers every instruction as one "<all>" procedure; with them
// it follows the declarations.
func TestAnalyseFallsBackToWholeProgram(t *testing.T) {
	p := mustAsm(t, nestedLoops)
	as := p.Analyse()
	if len(as) != 1 || as[0].Proc != &p.Procs[0] {
		t.Fatalf("declared: %d analyses, proc %v", len(as), as[0].Proc)
	}
	p.Procs = nil
	as = p.Analyse()
	if len(as) != 1 || as[0].Proc.Name != "<all>" || as[0].Proc.Start != 0 || as[0].Proc.End != len(p.Insts) {
		t.Fatalf("fallback: %d analyses, proc %+v", len(as), as[0].Proc)
	}
	if len(as[0].CFG.Blocks) != 5 || as[0].Live.Proc != as[0].Proc {
		t.Errorf("fallback: %d blocks, liveness of %+v", len(as[0].CFG.Blocks), as[0].Live.Proc)
	}
}

// TestConventionUsesAndDefs pins the convention at its boundaries: a
// call reads the arguments and clobbers every volatile register, a
// return reads the exit-live set, and HALT reads only the return value.
func TestConventionUsesAndDefs(t *testing.T) {
	ra := isa.Reg(5)
	if got, want := program.Uses(isa.Inst{Op: isa.JSR, Rd: isa.RRA, Ra: ra}), program.CallUses|1<<ra; got != want {
		t.Errorf("Uses(jsr) = %#x, want %#x", got, want)
	}
	if got, want := program.Defs(isa.Inst{Op: isa.JSR, Rd: isa.RRA, Ra: ra}), program.CallClobbers|1<<isa.RRA; got != want {
		t.Errorf("Defs(jsr) = %#x, want %#x", got, want)
	}
	if got, want := program.Uses(isa.Inst{Op: isa.RET, Rd: isa.RZero, Ra: isa.RRA}), program.ExitLive; got != want {
		t.Errorf("Uses(ret) = %#x, want %#x", got, want)
	}
	if got, want := program.Uses(isa.Inst{Op: isa.HALT}), program.RegSet(1<<isa.RV); got != want {
		t.Errorf("Uses(halt) = %#x, want only RV", got)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if clob, nonvol := program.CallClobbers.Has(r), program.Nonvolatile.Has(r); clob == (nonvol || r.IsZero()) {
			t.Errorf("%v: clobbered=%v nonvolatile=%v", r, clob, nonvol)
		}
		// The volatile registers the convention fixes: return values and
		// arguments.
		fixed := r == isa.RV || r == isa.FPReg(0) || program.CallUses.Has(r)
		if program.CallClobbers.Has(r) && program.ConventionRegs.Has(r) != fixed {
			t.Errorf("%v: convention register = %v, want %v", r, program.ConventionRegs.Has(r), fixed)
		}
	}
}
