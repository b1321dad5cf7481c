// Package lockstep is the differential validation harness: it runs the
// timing pipeline and the architectural reference emulator side by side
// over the same program and asserts they commit the identical
// instruction stream. Every committed instruction's (PC, dest register,
// written value) is compared as it retires; at periodic boundaries the
// full architectural state — register file and memory image — is
// compared too, which catches divergences the commit stream cannot see
// (a store writing the wrong data, for example). On a state-only
// divergence the harness bisects over the commit index to find the first
// commit after which the states disagree.
//
// All divergences are reported as a *simerr.SimError with Stage
// "lockstep" wrapping both simerr.ErrDivergence and a *Divergence
// carrying the first divergent commit and the mismatched field.
package lockstep

import (
	"context"
	"fmt"

	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/mem"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Options configures one lockstep run.
type Options struct {
	// MaxInsts bounds the instruction budget (default 100_000).
	MaxInsts uint64
	// CheckEvery is the architectural-state comparison cadence in
	// commits (default 10_000). Zero-after-defaulting is not possible;
	// set NoStateChecks to disable boundary comparisons entirely.
	CheckEvery uint64
	// NoStateChecks disables the periodic register/memory comparison,
	// leaving only the per-commit stream comparison.
	NoStateChecks bool
}

func (o Options) withDefaults() Options {
	if o.MaxInsts == 0 {
		o.MaxInsts = 100_000
	}
	if o.CheckEvery == 0 {
		o.CheckEvery = 10_000
	}
	return o
}

// Result summarizes a divergence-free run.
type Result struct {
	Workload    string
	Committed   uint64 // instructions compared in commit order
	StateChecks uint64 // boundary register/memory comparisons performed
	Stats       pipeline.Stats
}

// Divergence pinpoints the first disagreement between the pipeline and
// the reference emulator. It unwraps to simerr.ErrDivergence.
type Divergence struct {
	Commit uint64 // 0-based index of the first divergent commit
	Field  string // "pc", "wrote-rd", "rd", "value", "stream-length", "regs", "pc-state", "memory"
	Got    string // what the pipeline committed / holds
	Want   string // what the reference emulator executed / holds
}

// Error implements error.
func (d *Divergence) Error() string {
	return fmt.Sprintf("first divergent commit %d: %s: pipeline has %s, reference has %s: %v",
		d.Commit, d.Field, d.Got, d.Want, simerr.ErrDivergence)
}

// Unwrap exposes the sentinel to errors.Is.
func (d *Divergence) Unwrap() error { return simerr.ErrDivergence }

// Run executes prog on the pipeline under cfg while stepping the
// reference emulator in lockstep, comparing every committed instruction
// and (periodically) the full architectural state. mkPred builds a fresh
// predictor; it is called once for the main run and again for each
// bisection replay after a state-only divergence.
func Run(prog *program.Program, cfg pipeline.Config, mkPred func() core.Predictor, opts Options) (Result, error) {
	return run(prog, prog, cfg, mkPred, opts)
}

// run is the internal harness taking a separate reference program so
// tests can force divergence; production callers always pass the same
// program twice.
func run(prog, refProg *program.Program, cfg pipeline.Config, mkPred func() core.Predictor, opts Options) (Result, error) {
	opts = opts.withDefaults()
	res := Result{Workload: prog.Name}

	sim, err := pipeline.New(cfg)
	if err != nil {
		return res, err
	}
	st, err := emu.New(prog)
	if err != nil {
		return res, err
	}
	ref, err := emu.New(refProg)
	if err != nil {
		return res, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var derr error // first divergence (or bisection failure); wins over the cancel error
	fail := func(pc uint64, cycle int64, d *Divergence) {
		if derr == nil {
			derr = simerr.At("lockstep", prog.Name, pc, cycle, d)
			cancel()
		}
	}

	n := uint64(0) // commits compared so far == next commit's 0-based index
	sim.SetTracer(func(tr pipeline.TraceRecord) {
		if derr != nil {
			return
		}
		e, ok := ref.Step()
		if !ok {
			if rerr := ref.Err(); rerr != nil {
				derr = simerr.New("lockstep", fmt.Errorf("reference emulator failed at commit %d: %w", n, rerr))
				cancel()
				return
			}
			fail(tr.PC, tr.CommitAt, &Divergence{
				Commit: n, Field: "stream-length",
				Got:  fmt.Sprintf("commit of pc %#x", tr.PC),
				Want: fmt.Sprintf("halt after %d instructions", ref.Count),
			})
			return
		}
		switch {
		case e.PC != tr.PC:
			fail(tr.PC, tr.CommitAt, &Divergence{
				Commit: n, Field: "pc",
				Got: fmt.Sprintf("%#x", tr.PC), Want: fmt.Sprintf("%#x", e.PC),
			})
		case e.WroteRd != tr.WroteRd:
			fail(tr.PC, tr.CommitAt, &Divergence{
				Commit: n, Field: "wrote-rd",
				Got: fmt.Sprintf("%v", tr.WroteRd), Want: fmt.Sprintf("%v", e.WroteRd),
			})
		case e.WroteRd && e.Inst.Rd != tr.Rd:
			fail(tr.PC, tr.CommitAt, &Divergence{
				Commit: n, Field: "rd",
				Got: fmt.Sprintf("r%d", tr.Rd), Want: fmt.Sprintf("r%d", e.Inst.Rd),
			})
		case e.WroteRd && e.NewDest != tr.Value:
			fail(tr.PC, tr.CommitAt, &Divergence{
				Commit: n, Field: "value",
				Got: fmt.Sprintf("%#x", tr.Value), Want: fmt.Sprintf("%#x", e.NewDest),
			})
		default:
			n++
		}
	})

	// The progress hook fires between committed instructions, where st
	// (the pipeline's own emulator) holds the architectural state.
	lastGood := uint64(0)
	if !opts.NoStateChecks {
		sim.SetProgress(opts.CheckEvery, func(committed uint64, cycles int64) {
			if derr != nil {
				return
			}
			d := compareArch(st, ref)
			if d == nil {
				lastGood = committed
				res.StateChecks++
				return
			}
			// The commit streams agreed up to here but the architectural
			// states do not: bisect to the first commit count at which
			// replayed states disagree.
			c, berr := bisectDivergence(prog, refProg, cfg, mkPred, lastGood, committed)
			if berr != nil {
				derr = berr
				cancel()
				return
			}
			d.Commit = c
			fail(prog.PC(st.PC), cycles, d)
		})
	}

	stats, rerr := sim.RunFromContext(ctx, st, mkPred(), opts.MaxInsts)
	res.Stats = stats
	res.Committed = n
	if derr != nil {
		return res, derr
	}
	if rerr != nil {
		return res, rerr
	}

	// Final boundary: compare the end-of-run architectural state too.
	if !opts.NoStateChecks {
		if d := compareArch(st, ref); d != nil {
			c, berr := bisectDivergence(prog, refProg, cfg, mkPred, lastGood, stats.Committed)
			if berr != nil {
				return res, berr
			}
			d.Commit = c
			return res, simerr.At("lockstep", prog.Name, prog.PC(st.PC), stats.Cycles, d)
		}
		res.StateChecks++
	}
	return res, nil
}

// compareArch compares the pipeline's emulator state against the live
// reference state. Returns nil when identical; Commit is left zero for
// the caller (bisection) to fill in.
func compareArch(got, ref *emu.State) *Divergence {
	if got.Count != ref.Count {
		return &Divergence{Field: "regs",
			Got: fmt.Sprintf("count %d", got.Count), Want: fmt.Sprintf("count %d", ref.Count)}
	}
	if got.Regs != ref.Regs {
		for i := range got.Regs {
			if got.Regs[i] != ref.Regs[i] {
				return &Divergence{Field: "regs",
					Got:  fmt.Sprintf("r%d=%#x", i, got.Regs[i]),
					Want: fmt.Sprintf("r%d=%#x", i, ref.Regs[i])}
			}
		}
	}
	if got.PC != ref.PC {
		return &Divergence{Field: "pc-state",
			Got: fmt.Sprintf("index %d", got.PC), Want: fmt.Sprintf("index %d", ref.PC)}
	}
	if d := compareMem(got.Mem.Snapshot(), ref.Mem.Snapshot()); d != nil {
		return d
	}
	return nil
}

// compareMem compares two memory images. A page absent on one side is
// equal to an all-zero page on the other (pages materialize on write,
// and a write of zero still materializes one).
func compareMem(a, b mem.MemoryState) *Divergence {
	word := func(p []uint64, i int) uint64 {
		if i < len(p) {
			return p[i]
		}
		return 0
	}
	diff := func(base uint64, pa, pb []uint64, n int) *Divergence {
		for i := 0; i < n; i++ {
			if va, vb := word(pa, i), word(pb, i); va != vb {
				addr := base + uint64(i)*8
				return &Divergence{Field: "memory",
					Got:  fmt.Sprintf("[%#x]=%#x", addr, va),
					Want: fmt.Sprintf("[%#x]=%#x", addr, vb)}
			}
		}
		return nil
	}
	for base, pa := range a.Pages {
		if d := diff(base, pa, b.Pages[base], len(pa)); d != nil {
			return d
		}
	}
	for base, pb := range b.Pages {
		if _, ok := a.Pages[base]; ok {
			continue
		}
		if d := diff(base, nil, pb, len(pb)); d != nil {
			return d
		}
	}
	return nil
}

// bisectDivergence finds the first commit count in [lastGood, upTo] at
// which replayed architectural states disagree. The last-good boundary
// is re-probed first: firstDivergent requires agree(lo) to hold, and
// while a live boundary check already passed there for same-program
// runs, a differential run against a distinct reference can disagree
// from the very start (different code or data image).
func bisectDivergence(prog, refProg *program.Program, cfg pipeline.Config, mkPred func() core.Predictor, lastGood, upTo uint64) (uint64, error) {
	ok, err := stateAgreesAt(prog, refProg, cfg, mkPred, lastGood)
	if err != nil {
		return 0, err
	}
	if !ok {
		return lastGood, nil
	}
	return firstDivergent(lastGood, upTo, func(k uint64) (bool, error) {
		return stateAgreesAt(prog, refProg, cfg, mkPred, k)
	})
}

// stateAgreesAt replays both machines to exactly k commits and reports
// whether their architectural states agree there.
func stateAgreesAt(prog, refProg *program.Program, cfg pipeline.Config, mkPred func() core.Predictor, k uint64) (bool, error) {
	if k == 0 {
		// A budget of zero would mean "run to HALT" to the pipeline, so
		// compare the two initial images directly.
		a, err := emu.New(prog)
		if err != nil {
			return false, err
		}
		b, err := emu.New(refProg)
		if err != nil {
			return false, err
		}
		return compareArch(a, b) == nil, nil
	}
	sim, err := pipeline.New(cfg)
	if err != nil {
		return false, err
	}
	st, err := emu.New(prog)
	if err != nil {
		return false, err
	}
	if _, err := sim.RunFromContext(context.Background(), st, mkPred(), k); err != nil {
		return false, err
	}
	ref, err := emu.New(refProg)
	if err != nil {
		return false, err
	}
	ref.Run(k)
	return compareArch(st, ref) == nil, nil
}

// firstDivergent binary-searches for the smallest commit count in
// (lo, hi] at which agree reports false, given agree(lo) is known true
// and agree(hi) is known false.
func firstDivergent(lo, hi uint64, agree func(uint64) (bool, error)) (uint64, error) {
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		ok, err := agree(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
