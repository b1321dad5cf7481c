package emu_test

import (
	"errors"
	"testing"

	"rvpsim/internal/asm"
	"rvpsim/internal/emu"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/isa"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

const tinySrc = `
.text
main:
        li      r1, 3
loop:
        addi    r2, r2, 1
        subi    r1, r1, 1
        bne     r1, loop
        halt
`

// TestNewRejectsBadPrograms checks nil, empty, and out-of-range-entry
// programs are rejected up front with ErrConfig instead of crashing
// later inside the step loop.
func TestNewRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog *program.Program
	}{
		{"nil", nil},
		{"empty", &program.Program{Name: "empty"}},
		{"entry out of range", func() *program.Program {
			p := asm.MustAssemble("t", tinySrc, asm.Options{})
			q := p.Clone()
			q.Entry = len(q.Insts) + 5
			return q
		}()},
	}
	for _, c := range cases {
		if _, err := emu.New(c.prog); !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("%s: want ErrConfig, got %v", c.name, err)
		}
	}
}

// TestTruncatedProgramErrors checks a program whose tail (including the
// HALT) was cut off terminates with a step error rather than silently
// succeeding or running forever.
func TestTruncatedProgramErrors(t *testing.T) {
	p := asm.MustAssemble("t", tinySrc, asm.Options{})
	tr := faultinject.Truncate(p, 2) // loses the branch and the halt
	st, err := emu.New(tr)
	if err != nil {
		t.Fatalf("truncated program rejected up front: %v", err)
	}
	steps := 0
	for {
		if _, ok := st.Step(); !ok {
			break
		}
		if steps++; steps > 1000 {
			t.Fatal("truncated program still running after 1000 steps")
		}
	}
	if st.Err() == nil {
		t.Fatal("truncated program terminated without an error")
	}
}

// TestRestoreRejectsNonZeroZeroRegs checks Restore refuses a snapshot
// whose RZero or FZero holds a value: register reads take both as zero
// without testing, so such a state would read a value no program wrote.
// The snapshot's PC is also checked against the program.
func TestRestoreRejectsNonZeroZeroRegs(t *testing.T) {
	p := asm.MustAssemble("t", tinySrc, asm.Options{})
	st := emu.MustNew(p)
	st.Step()
	good := st.Snapshot()
	if _, err := emu.Restore(p, good); err != nil {
		t.Fatalf("restoring a clean snapshot: %v", err)
	}
	for _, r := range []isa.Reg{isa.RZero, isa.FZero} {
		bad := good
		bad.Regs[r] = 7
		if _, err := emu.Restore(p, bad); !errors.Is(err, simerr.ErrCorrupt) {
			t.Errorf("%v = 7: Restore = %v, want ErrCorrupt", r, err)
		}
	}
	bad := good
	bad.PC = len(p.Insts)
	if _, err := emu.Restore(p, bad); !errors.Is(err, simerr.ErrCorrupt) {
		t.Errorf("pc past the program: Restore = %v, want ErrCorrupt", err)
	}
}
