package program

import (
	"math/bits"

	"rvpsim/internal/isa"
)

// RegSet is a bitset over the 64 architectural registers.
type RegSet uint64

// Add inserts r into the set.
func (s *RegSet) Add(r isa.Reg) { *s |= 1 << r }

// Remove deletes r from the set.
func (s *RegSet) Remove(r isa.Reg) { *s &^= 1 << r }

// Has reports membership.
func (s RegSet) Has(r isa.Reg) bool { return s&(1<<r) != 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// Each calls f for every register in the set, in ascending order.
func (s RegSet) Each(f func(isa.Reg)) {
	for ; s != 0; s &= s - 1 {
		f(isa.Reg(bits.TrailingZeros64(uint64(s))))
	}
}

func setOf(regs ...isa.Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s.Add(r)
	}
	return s
}

// The calling convention as register sets. They are its only
// definition: liveness here, and the re-allocator's webs and pinned
// registers, read them.
var (
	// Nonvolatile is every callee-saved register, SP and RA included.
	Nonvolatile = setOf(NonvolatileRegs...) | setOf(FPNonvolatileRegs...)
	// ExitLive is live at every procedure exit: the callee-saved
	// registers and the return value.
	ExitLive = Nonvolatile | setOf(isa.RV)
	// CallUses is read by every call: all argument registers.
	CallUses = setOf(ArgRegs...) | setOf(FPArgRegs...)
	// CallClobbers is written by every call: every register that is
	// neither callee-saved nor a hardwired zero.
	CallClobbers = ^(Nonvolatile | setOf(isa.RZero, isa.FZero))
	// ConventionRegs keep their architectural names under
	// re-allocation: both return values, the arguments, the callee-saved
	// registers and the hardwired zeros.
	ConventionRegs = ExitLive | CallUses | setOf(isa.FPReg(0), isa.RZero, isa.FZero)
)

// Liveness holds per-instruction liveness for one procedure.
type Liveness struct {
	Proc *Procedure
	// liveOut[i-Proc.Start] is the set of registers live immediately
	// after instruction i executes.
	liveOut []RegSet
	// liveIn[i-Proc.Start] is the set live immediately before i.
	liveIn []RegSet
}

// LiveOut returns the registers live immediately after instruction i.
func (l *Liveness) LiveOut(i int) RegSet { return l.liveOut[i-l.Proc.Start] }

// LiveIn returns the registers live immediately before instruction i.
func (l *Liveness) LiveIn(i int) RegSet { return l.liveIn[i-l.Proc.Start] }

// DeadAt reports whether register r is dead immediately after instruction
// i: its current value will not be read again before being overwritten on
// any path. Hardwired zero registers are never considered dead (they are
// not allocatable).
func (l *Liveness) DeadAt(i int, r isa.Reg) bool {
	if r.IsZero() {
		return false
	}
	return !l.LiveOut(i).Has(r)
}

// Uses returns the registers instruction in reads, including what the
// convention implies: a call reads the argument registers, a return
// reads ExitLive, and HALT reads the return value.
func Uses(in isa.Inst) RegSet {
	var s RegSet
	switch in.Op {
	case isa.JSR:
		s = CallUses
	case isa.RET:
		s = ExitLive
	case isa.HALT:
		s.Add(isa.RV)
	}
	for _, r := range in.Sources(nil) {
		if !r.IsZero() {
			s.Add(r)
		}
	}
	return s
}

// Defs returns the registers instruction in writes, including a call's
// clobbers.
func Defs(in isa.Inst) RegSet {
	var s RegSet
	if in.Op == isa.JSR {
		s = CallClobbers
	}
	if d, ok := in.Dest(); ok {
		s.Add(d)
	}
	return s
}

// ComputeLiveness runs backward liveness dataflow over the procedure's CFG
// under the paper's assumptions: nonvolatile registers (and the return
// value) are live at procedure exit, calls read all argument registers and
// clobber all volatile registers.
func ComputeLiveness(prog *Program, g *CFG) *Liveness {
	n := g.Proc.End - g.Proc.Start
	l := &Liveness{Proc: g.Proc, liveOut: make([]RegSet, n), liveIn: make([]RegSet, n)}

	nb := len(g.Blocks)
	blockUse := make([]RegSet, nb)
	blockDef := make([]RegSet, nb)
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		var use, def RegSet
		for i := b.Start; i < b.End; i++ {
			in := prog.Insts[i]
			u := Uses(in)
			use |= u &^ def
			def |= Defs(in)
		}
		blockUse[bi] = use
		blockDef[bi] = def
	}
	blockLiveOut := make([]RegSet, nb)
	blockLiveIn := make([]RegSet, nb)
	// Blocks ending in RET or HALT (or with no successors) expose the
	// exit-live set.
	exitOut := func(bi int) RegSet {
		b := &g.Blocks[bi]
		last := prog.Insts[b.End-1]
		if last.Op == isa.RET || last.Op == isa.HALT || len(b.Succs) == 0 {
			return ExitLive
		}
		return 0
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			out := exitOut(bi)
			for _, s := range g.Blocks[bi].Succs {
				out |= blockLiveIn[s]
			}
			in := blockUse[bi] | (out &^ blockDef[bi])
			if out != blockLiveOut[bi] || in != blockLiveIn[bi] {
				blockLiveOut[bi] = out
				blockLiveIn[bi] = in
				changed = true
			}
		}
	}
	// Per-instruction liveness within each block, walked backward.
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		out := blockLiveOut[bi]
		for i := b.End - 1; i >= b.Start; i-- {
			in := prog.Insts[i]
			l.liveOut[i-g.Proc.Start] = out
			liveIn := Uses(in) | (out &^ Defs(in))
			l.liveIn[i-g.Proc.Start] = liveIn
			out = liveIn
		}
	}
	return l
}

// Analysis is one procedure's control-flow graph and liveness.
type Analysis struct {
	Proc *Procedure
	CFG  *CFG
	Live *Liveness
}

// Analyse returns p's analysed procedures: the declared ones or, when p
// declares none, one whole-program procedure named "<all>". The
// analyses are intraprocedural, so rewriting one procedure's
// instructions leaves the others' analyses valid.
func (p *Program) Analyse() []Analysis {
	procs := p.Procs
	if len(procs) == 0 {
		procs = []Procedure{{Name: "<all>", Start: 0, End: len(p.Insts)}}
	}
	out := make([]Analysis, len(procs))
	for i := range procs {
		g := BuildCFG(p, &procs[i])
		out[i] = Analysis{Proc: &procs[i], CFG: g, Live: ComputeLiveness(p, g)}
	}
	return out
}
