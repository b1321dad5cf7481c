package emu

import (
	"fmt"

	"rvpsim/internal/isa"
	"rvpsim/internal/mem"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Snapshot is the full architectural machine state at an instruction
// boundary: registers, PC, halt flag, commit count, and the complete
// memory image (which includes the code image New wrote, so Restore does
// not re-encode the program).
type Snapshot struct {
	Regs   [isa.NumRegs]uint64
	PC     int
	Halted bool
	Count  uint64
	Mem    mem.MemoryState
}

// Snapshot captures the architectural state. It must be taken at an
// instruction boundary (between Step calls), which is the only place
// callers can observe the state anyway.
func (s *State) Snapshot() Snapshot {
	return Snapshot{
		Regs:   s.Regs,
		PC:     s.PC,
		Halted: s.Halted,
		Count:  s.Count,
		Mem:    s.Mem.Snapshot(),
	}
}

// Restore rebuilds an architectural state for prog from a snapshot.
// The snapshot must come from a run of the same program; a PC outside
// the program or a non-zero RZero or FZero is rejected with an error
// wrapping simerr.ErrCorrupt.
func Restore(prog *program.Program, snap Snapshot) (*State, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, fmt.Errorf("emu: restore into empty program: %w", simerr.ErrConfig)
	}
	if snap.PC < 0 || snap.PC >= len(prog.Insts) {
		return nil, fmt.Errorf("emu: snapshot pc %d out of range [0,%d): %w",
			snap.PC, len(prog.Insts), simerr.ErrCorrupt)
	}
	if snap.Regs[isa.RZero] != 0 || snap.Regs[isa.FZero] != 0 {
		return nil, fmt.Errorf("emu: snapshot zero registers hold %#x and %#x: %w",
			snap.Regs[isa.RZero], snap.Regs[isa.FZero], simerr.ErrCorrupt)
	}
	m, err := mem.RestoreMemory(snap.Mem)
	if err != nil {
		return nil, err
	}
	s := &State{Prog: prog, Mem: m, Regs: snap.Regs, PC: snap.PC, Halted: snap.Halted, Count: snap.Count, dec: decode(prog)}
	return s, nil
}
