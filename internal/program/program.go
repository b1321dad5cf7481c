// Package program models an assembled program: its instructions, data
// image, procedures, control-flow graphs, natural loops, and register
// liveness. It is the substrate for the register-reuse profiler and for
// the Section 7.3 register re-allocator: it alone defines the calling
// convention both assume, and Analyse gives both the same analysed
// procedures.
package program

import (
	"fmt"

	"rvpsim/internal/isa"
)

// Calling conventions, Alpha-flavoured. The paper's re-allocator assumes
// "all nonvolatile registers are live at entrance and exit, and each
// procedure call uses all argument registers"; these lists, and the
// register sets built from them in liveness.go, define that.
var (
	// ArgRegs are the integer argument registers (a0..a5 = r16..r21).
	ArgRegs = []isa.Reg{16, 17, 18, 19, 20, 21}
	// NonvolatileRegs are callee-saved integer registers (r9..r15) plus
	// the stack pointer and return-address register.
	NonvolatileRegs = []isa.Reg{9, 10, 11, 12, 13, 14, 15, isa.RSP, isa.RRA}
	// FPArgRegs are FP argument registers (f16..f21).
	FPArgRegs = []isa.Reg{isa.FPReg(16), isa.FPReg(17), isa.FPReg(18), isa.FPReg(19), isa.FPReg(20), isa.FPReg(21)}
	// FPNonvolatileRegs are callee-saved FP registers (f2..f9).
	FPNonvolatileRegs = []isa.Reg{isa.FPReg(2), isa.FPReg(3), isa.FPReg(4), isa.FPReg(5), isa.FPReg(6), isa.FPReg(7), isa.FPReg(8), isa.FPReg(9)}
)

// DataChunk is a contiguous run of initialised simulated memory.
type DataChunk struct {
	Addr  uint64
	Words []uint64 // 64-bit words, little-endian in memory
}

// Procedure is a named, contiguous range of instructions [Start, End).
type Procedure struct {
	Name  string
	Start int // first instruction index
	End   int // one past the last instruction index
}

// Program is an assembled, runnable program. Instruction addresses are
// CodeBase + 8*index in simulated memory; branch targets in instructions
// are absolute instruction indices.
type Program struct {
	Name     string
	Insts    []isa.Inst
	Entry    int // entry instruction index
	Procs    []Procedure
	Data     []DataChunk
	Labels   map[string]int    // label -> instruction index
	DataSyms map[string]uint64 // data symbol -> address

	// CodeBase is the simulated-memory address of instruction 0.
	CodeBase uint64
	// StackTop is the initial stack pointer.
	StackTop uint64
}

// DefaultCodeBase and DefaultStackTop place code low and the stack high,
// far from workload data segments.
const (
	DefaultCodeBase = uint64(0x0000_0000_0001_0000)
	DefaultStackTop = uint64(0x0000_0000_7fff_0000)
)

// PC converts an instruction index to a simulated-memory address.
func (p *Program) PC(index int) uint64 { return p.CodeBase + uint64(index)*isa.InstBytes }

// Index converts a simulated-memory address back to an instruction index.
func (p *Program) Index(pc uint64) int { return int((pc - p.CodeBase) / isa.InstBytes) }

// ProcAt returns the procedure containing instruction index i, or nil.
func (p *Program) ProcAt(i int) *Procedure {
	for k := range p.Procs {
		if i >= p.Procs[k].Start && i < p.Procs[k].End {
			return &p.Procs[k]
		}
	}
	return nil
}

// Clone returns a deep copy of the program; the re-allocator rewrites the
// copy's registers without disturbing the original.
func (p *Program) Clone() *Program {
	q := *p
	q.Insts = append([]isa.Inst(nil), p.Insts...)
	q.Procs = append([]Procedure(nil), p.Procs...)
	q.Data = make([]DataChunk, len(p.Data))
	for i, c := range p.Data {
		q.Data[i] = DataChunk{Addr: c.Addr, Words: append([]uint64(nil), c.Words...)}
	}
	q.Labels = make(map[string]int, len(p.Labels))
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	q.DataSyms = make(map[string]uint64, len(p.DataSyms))
	for k, v := range p.DataSyms {
		q.DataSyms[k] = v
	}
	return &q
}

// Validate performs structural sanity checks: branch targets in range,
// procedures non-overlapping and covering their instructions, and a HALT
// reachable from entry (statically present).
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("program %q: no instructions", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Insts) {
		return fmt.Errorf("program %q: entry %d out of range", p.Name, p.Entry)
	}
	halt := false
	for i, in := range p.Insts {
		switch {
		case isa.IsCondBranch(in.Op), in.Op == isa.BR:
			if in.Imm < 0 || in.Imm >= int64(len(p.Insts)) {
				return fmt.Errorf("program %q: inst %d (%v): branch target out of range", p.Name, i, in)
			}
		case in.Op == isa.HALT:
			halt = true
		}
	}
	if !halt {
		return fmt.Errorf("program %q: no HALT instruction", p.Name)
	}
	for i := range p.Procs {
		pr := &p.Procs[i]
		if pr.Start < 0 || pr.End > len(p.Insts) || pr.Start >= pr.End {
			return fmt.Errorf("program %q: procedure %q range [%d,%d) invalid", p.Name, pr.Name, pr.Start, pr.End)
		}
		for j := range p.Procs {
			if i != j && pr.Start < p.Procs[j].End && p.Procs[j].Start < pr.End {
				return fmt.Errorf("program %q: procedures %q and %q overlap", p.Name, pr.Name, p.Procs[j].Name)
			}
		}
	}
	return nil
}
