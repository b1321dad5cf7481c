// Package emu implements the architectural (functional) emulator for the
// simulator's ISA. It executes programs in order along the correct path
// and produces per-instruction execution records; both the register-reuse
// profiler and the timing pipeline's oracle execution are built on it.
package emu

import (
	"fmt"
	"math"

	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Exec describes one executed (committed) instruction. OldDest is the
// value the destination register held *before* the write — the value
// register value prediction would have used.
type Exec struct {
	Index   int      // static instruction index
	Inst    isa.Inst // the instruction
	PC      uint64   // simulated-memory address of the instruction
	Next    int      // index of the next instruction executed
	WroteRd bool     // instruction architecturally wrote Rd
	OldDest uint64   // prior value of Rd (valid when WroteRd)
	NewDest uint64   // value written to Rd (valid when WroteRd)
	EA      uint64   // effective address (loads/stores)
	IsMem   bool     // load or store
	Taken   bool     // branch outcome (control transfers)
	IsCTI   bool     // control-transfer instruction
}

// State is the architectural machine state. RZero and FZero always hold
// zero: StepInto never writes them, and Restore rejects a snapshot that
// says otherwise, so register reads need no zero-register test.
type State struct {
	Prog   *program.Program
	Mem    *mem.Memory
	Regs   [isa.NumRegs]uint64
	PC     int // instruction index
	Halted bool
	Count  uint64 // committed instructions

	dec []decoded // per static instruction, built once by New and Restore
	err error
}

// decoded is what StepInto needs of one static instruction beyond the
// instruction itself, derived once per program instead of every step.
type decoded struct {
	pc     uint64 // Prog.PC of the instruction
	writes bool   // WritesReg
	cond   bool   // isa.IsCondBranch
}

func decode(prog *program.Program) []decoded {
	dec := make([]decoded, len(prog.Insts))
	for i, in := range prog.Insts {
		dec[i] = decoded{pc: prog.PC(i), writes: in.WritesReg(), cond: isa.IsCondBranch(in.Op)}
	}
	return dec
}

// New creates an architectural state for prog: memory is populated with
// the encoded code image and all data chunks, the stack pointer is set,
// and the PC points at the entry instruction. Structurally broken
// programs (empty, entry out of range) are rejected up front; errors
// wrap simerr.ErrConfig.
func New(prog *program.Program) (*State, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, fmt.Errorf("emu: empty program: %w", simerr.ErrConfig)
	}
	if prog.Entry < 0 || prog.Entry >= len(prog.Insts) {
		return nil, fmt.Errorf("emu: program %q entry %d out of range [0,%d): %w",
			prog.Name, prog.Entry, len(prog.Insts), simerr.ErrConfig)
	}
	s := &State{Prog: prog, Mem: mem.NewMemory(), PC: prog.Entry, dec: decode(prog)}
	for i, in := range prog.Insts {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("emu: instruction %d: %w", i, err)
		}
		s.Mem.WriteWord(prog.PC(i), w)
	}
	for _, c := range prog.Data {
		for i, w := range c.Words {
			s.Mem.WriteWord(c.Addr+uint64(i)*8, w)
		}
	}
	s.Regs[isa.RSP] = prog.StackTop
	return s, nil
}

// MustNew is New, panicking on error (for assembler-validated programs).
func MustNew(prog *program.Program) *State {
	s, err := New(prog)
	if err != nil {
		panic(err)
	}
	return s
}

// Err returns the first execution error (bad PC, bad JSR target).
func (s *State) Err() error { return s.err }

func f(v uint64) float64  { return math.Float64frombits(v) }
func fb(v float64) uint64 { return math.Float64bits(v) }
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
func fb2u(b bool) uint64 {
	if b {
		return fb(1.0)
	}
	return fb(0.0)
}

// Step executes one instruction and returns its execution record. After
// HALT (or an error), Step returns ok == false.
func (s *State) Step() (Exec, bool) {
	var e Exec
	ok := s.StepInto(&e)
	return e, ok
}

// StepInto is Step writing the execution record into *e instead of
// returning it, so a caller-owned record can be reused across the hot
// loop without copying the (large) Exec struct every instruction. On
// ok == false, *e is zeroed.
func (s *State) StepInto(e *Exec) bool {
	if s.Halted || s.err != nil {
		*e = Exec{}
		return false
	}
	if s.PC < 0 || s.PC >= len(s.Prog.Insts) {
		s.err = fmt.Errorf("emu: pc %d out of range", s.PC)
		*e = Exec{}
		return false
	}
	i := s.PC
	in := s.Prog.Insts[i]
	d := &s.dec[i]
	// Field-by-field reset instead of a composite-literal assignment: the
	// latter compiles to a stack temporary plus duffcopy of the whole
	// struct, which profiling shows at ~15% of simulation time.
	e.Index = i
	e.Inst = in
	e.PC = d.pc
	e.Next = i + 1
	e.WroteRd = false
	e.OldDest = 0
	e.NewDest = 0
	e.EA = 0
	e.IsMem = false
	e.Taken = false
	e.IsCTI = false

	a := s.Regs[in.Ra]
	b := s.Regs[in.Rb]
	var result uint64
	writes := d.writes

	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		result = a + b
	case isa.ADDI:
		result = a + uint64(in.Imm)
	case isa.SUB:
		result = a - b
	case isa.SUBI:
		result = a - uint64(in.Imm)
	case isa.MUL:
		result = a * b
	case isa.MULI:
		result = a * uint64(in.Imm)
	case isa.DIV:
		if b != 0 {
			result = uint64(int64(a) / int64(b))
		}
	case isa.REM:
		if b != 0 {
			result = uint64(int64(a) % int64(b))
		}
	case isa.AND:
		result = a & b
	case isa.ANDI:
		result = a & uint64(in.Imm)
	case isa.OR:
		result = a | b
	case isa.ORI:
		result = a | uint64(in.Imm)
	case isa.XOR:
		result = a ^ b
	case isa.XORI:
		result = a ^ uint64(in.Imm)
	case isa.SLL:
		result = a << (b & 63)
	case isa.SLLI:
		result = a << (uint64(in.Imm) & 63)
	case isa.SRL:
		result = a >> (b & 63)
	case isa.SRLI:
		result = a >> (uint64(in.Imm) & 63)
	case isa.SRA:
		result = uint64(int64(a) >> (b & 63))
	case isa.SRAI:
		result = uint64(int64(a) >> (uint64(in.Imm) & 63))
	case isa.CMPEQ:
		result = b2u(a == b)
	case isa.CMPEQI:
		result = b2u(int64(a) == in.Imm)
	case isa.CMPLT:
		result = b2u(int64(a) < int64(b))
	case isa.CMPLTI:
		result = b2u(int64(a) < in.Imm)
	case isa.CMPLE:
		result = b2u(int64(a) <= int64(b))
	case isa.CMPLEI:
		result = b2u(int64(a) <= in.Imm)
	case isa.CMPULT:
		result = b2u(a < b)
	case isa.LDA:
		result = a + uint64(in.Imm)
	case isa.LDAH:
		result = a + uint64(in.Imm)<<16
	case isa.LDQ, isa.RVPLDQ, isa.LDT, isa.RVPLDT:
		e.EA = a + uint64(in.Imm)
		e.IsMem = true
		result = s.Mem.ReadWord(e.EA)
	case isa.STQ, isa.STT:
		e.EA = a + uint64(in.Imm)
		e.IsMem = true
		s.Mem.WriteWord(e.EA, s.Regs[in.Rd])
	case isa.BEQ:
		e.IsCTI = true
		e.Taken = int64(a) == 0
	case isa.BNE:
		e.IsCTI = true
		e.Taken = int64(a) != 0
	case isa.BLT:
		e.IsCTI = true
		e.Taken = int64(a) < 0
	case isa.BGE:
		e.IsCTI = true
		e.Taken = int64(a) >= 0
	case isa.BGT:
		e.IsCTI = true
		e.Taken = int64(a) > 0
	case isa.BLE:
		e.IsCTI = true
		e.Taken = int64(a) <= 0
	case isa.FBEQ:
		e.IsCTI = true
		e.Taken = f(a) == 0
	case isa.FBNE:
		e.IsCTI = true
		e.Taken = f(a) != 0
	case isa.BR:
		e.IsCTI = true
		e.Taken = true
		if writes {
			result = s.Prog.PC(i + 1)
		}
		e.Next = int(in.Imm)
	case isa.JSR:
		e.IsCTI = true
		e.Taken = true
		result = s.Prog.PC(i + 1)
		e.Next = s.Prog.Index(a)
	case isa.RET:
		e.IsCTI = true
		e.Taken = true
		e.Next = s.Prog.Index(a)
	case isa.FADD:
		result = fb(f(a) + f(b))
	case isa.FSUB:
		result = fb(f(a) - f(b))
	case isa.FMUL:
		result = fb(f(a) * f(b))
	case isa.FDIV:
		if f(b) != 0 {
			result = fb(f(a) / f(b))
		} else {
			result = fb(0)
		}
	case isa.FCMPEQ:
		result = fb2u(f(a) == f(b))
	case isa.FCMPLT:
		result = fb2u(f(a) < f(b))
	case isa.FCMPLE:
		result = fb2u(f(a) <= f(b))
	case isa.CVTQT:
		result = fb(float64(int64(a)))
	case isa.CVTTQ:
		result = uint64(int64(f(a)))
	case isa.ITOF, isa.FTOI:
		result = a
	case isa.HALT:
		s.Halted = true
		s.Count++
		return true
	default:
		s.err = fmt.Errorf("emu: unimplemented opcode %v at %d", in.Op, i)
		*e = Exec{}
		return false
	}

	if d.cond && e.Taken {
		e.Next = int(in.Imm)
	}
	if writes { // WritesReg is false for a zero-register destination
		e.WroteRd = true
		e.OldDest = s.Regs[in.Rd]
		e.NewDest = result
		s.Regs[in.Rd] = result
	}
	if e.Next < 0 || e.Next >= len(s.Prog.Insts) {
		s.err = fmt.Errorf("emu: control transfer from %d to invalid index %d", i, e.Next)
		*e = Exec{}
		return false
	}
	s.PC = e.Next
	s.Count++
	return true
}

// Run executes until HALT, an error, or max committed instructions
// (max <= 0 means unlimited). It returns the number executed.
func (s *State) Run(max uint64) uint64 {
	start := s.Count
	for !s.Halted && s.err == nil {
		if max > 0 && s.Count-start >= max {
			break
		}
		if _, ok := s.Step(); !ok {
			break
		}
	}
	return s.Count - start
}
