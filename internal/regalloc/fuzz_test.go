package regalloc_test

import (
	"fmt"
	"strings"
	"testing"

	"rvpsim/internal/asm"
	"rvpsim/internal/emu"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/progtest"
	"rvpsim/internal/regalloc"
)

// genRegs is the volatile pool the stress generator draws from.
var genRegs = []string{"r1", "r3", "r4", "r5", "r6", "r7", "r8", "r22", "r23", "r24", "r25", "r27"}

// lockstep runs two programs side by side and fails at the first
// divergence in control flow, memory effects, or final state.
func lockstep(t *testing.T, seed uint64, a, b *program.Program, maxSteps int) {
	t.Helper()
	sa, sb := emu.MustNew(a), emu.MustNew(b)
	for i := 0; i < maxSteps; i++ {
		ea, oka := sa.Step()
		eb, okb := sb.Step()
		if oka != okb {
			t.Fatalf("seed %d: step %d: one side stopped early", seed, i)
		}
		if !oka {
			break
		}
		if ea.Index != eb.Index {
			t.Fatalf("seed %d: step %d: control diverged (%d vs %d)", seed, i, ea.Index, eb.Index)
		}
		if ea.IsMem != eb.IsMem || ea.EA != eb.EA {
			t.Fatalf("seed %d: step %d (inst %d %v): memory access diverged", seed, i, ea.Index, ea.Inst)
		}
		if ea.IsMem && ea.Inst.Op.String()[0] == 's' {
			// Stores: the written word must match.
			if sa.Mem.ReadWord(ea.EA) != sb.Mem.ReadWord(eb.EA) {
				t.Fatalf("seed %d: step %d: store value diverged at %#x", seed, i, ea.EA)
			}
		}
	}
	if sa.Regs[0] != sb.Regs[0] {
		t.Fatalf("seed %d: final r0 diverged: %d vs %d", seed, sa.Regs[0], sb.Regs[0])
	}
}

// TestReallocateFuzz generates random programs, re-allocates them with
// whatever reuse the profiler finds, and checks semantic equivalence by
// lockstep execution.
func TestReallocateFuzz(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	applied := 0
	for seed := 1; seed <= seeds; seed++ {
		p := progtest.Random(uint64(seed))
		pr, err := profile.Run(p, profile.Options{MaxInsts: 50_000})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		lists := pr.Lists(0.8, false, 8)
		res, err := regalloc.Reallocate(p, pr, lists)
		if err != nil {
			t.Fatalf("seed %d: realloc: %v", seed, err)
		}
		applied += res.DeadApplied + res.LVApplied
		lockstep(t, uint64(seed), p, res.Prog, 100_000)
	}
	// The fuzz must actually exercise rewrites, not just no-ops.
	if applied == 0 {
		t.Error("fuzz applied no reuses across all seeds; generator too bland")
	}
	t.Logf("applied %d reuses across %d seeds", applied, seeds)
}

// TestReallocateFuzzStress raises the pressure: many hot loads of a
// constant array force dense reuse lists and heavy re-colouring.
func TestReallocateFuzzStress(t *testing.T) {
	for seed := 1; seed <= 10; seed++ {
		g := newStressRNG(uint64(seed) * 0xfeedfacecafe)
		var b strings.Builder
		b.WriteString(".text\n.proc main\nmain:\n        li r9, 50\n        lda r2, arr\nouter:\n")
		// Constant loads into many registers (dense reuse), clobbers to
		// create LV opportunities, and enough pressure to force pruning.
		for i := 0; i < 10; i++ {
			r := genRegs[g(len(genRegs))]
			fmt.Fprintf(&b, "        ldq %s, %d(r2)\n", r, g(4)*8)
			if g(3) == 0 {
				fmt.Fprintf(&b, "        li %s, %d\n", r, g(50))
			}
			fmt.Fprintf(&b, "        add r4, r4, %s\n", r)
		}
		b.WriteString("        subi r9, r9, 1\n        bne r9, outer\n        mov r0, r4\n        halt\n.endproc\n")
		b.WriteString(".data\n.org 0x100000\narr: .quad 7, 7, 7, 7\n")
		p, err := asm.Assemble(fmt.Sprintf("stress%d", seed), b.String(), asm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pr, err := profile.Run(p, profile.Options{MaxInsts: 50_000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := regalloc.Reallocate(p, pr, pr.Lists(0.8, false, 8))
		if err != nil {
			t.Fatal(err)
		}
		lockstep(t, uint64(seed), p, res.Prog, 100_000)
	}
}

// newStressRNG returns a bounded xorshift closure.
func newStressRNG(seed uint64) func(int) int {
	s := seed | 1
	return func(n int) int {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return int((s * 0x2545f4914f6cdd1d) >> 33 % uint64(n))
	}
}
