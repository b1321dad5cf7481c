// Package regalloc implements the paper's Section 7.3: a realistic model
// of compiler register re-allocation that converts profiled dead-register
// and last-value reuse into same-register reuse.
//
// For each procedure it builds def-use webs via reaching-definitions
// analysis, constructs a web interference graph from live-range analysis,
// merges the web of each dead-reuse instruction's destination with the web
// of the reused value's primary producer, adds interference edges between
// each last-value-reuse (LVR) instruction's destination web and every web
// defined in its innermost loop, and then Chaitin-colours the graph. When
// colouring fails, register reuses are abandoned using the paper's
// heuristics — LVR before dead reuse, outer loops before inner, low
// critical-path contribution first — until the graph colours. Surviving
// reuses are realised by rewriting the program's registers, so the
// rewritten program exhibits the reuse as plain same-register reuse with
// no hints at all.
//
// The calling convention and the per-procedure CFG and liveness come from
// package program (ConventionRegs, Uses, CallClobbers, Analyse).
// Calling-convention webs (args, return value, SP, RA, callee-saved
// registers, values reaching back to procedure entry, and call-clobber
// definitions) are pinned: they keep their architectural names, and reuses
// that would recolour them are dropped — mirroring the paper's "no reuse
// of registers defined in other procedures" rule.
package regalloc

import (
	"fmt"
	"sort"

	"rvpsim/internal/isa"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
)

// Reuse identifies one profiled reuse opportunity under consideration.
type Reuse struct {
	Inst    int  // static instruction index (the predicted instruction)
	LVR     bool // last-value reuse (vs dead-register reuse)
	Protect bool // guard existing same-register reuse (adds LVR-style
	// exclusivity edges so re-colouring cannot move another value stream
	// onto a register that already exhibits reuse)
	Reg      isa.Reg // correlated register (dead reuse only)
	Producer int     // primary producer of the reused value (-1 unknown)
	Depth    int     // loop nesting depth of Inst (0 = not in a loop)
	Crit     uint64  // critical-path contribution of Inst
}

// Result reports what the re-allocator did.
type Result struct {
	Prog *program.Program // rewritten program (a clone; input untouched)

	DeadApplied int
	DeadDropped int
	LVApplied   int
	LVDropped   int

	// Dropped lists the abandoned reuses, in pruning order.
	Dropped []Reuse
}

// The colours a non-pinned web may take: every register outside the
// calling convention's (program.ConventionRegs), per register file.
var intPalette, fpPalette []isa.Reg

func init() {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		switch {
		case program.ConventionRegs.Has(r):
		case r.IsFP():
			fpPalette = append(fpPalette, r)
		default:
			intPalette = append(intPalette, r)
		}
	}
}

// Reallocate applies Section 7.3 to prog using the profile's dead and LV
// lists, returning the rewritten program and an accounting of applied and
// dropped reuses.
func Reallocate(prog *program.Program, prof *profile.Profile, lists profile.Lists) (*Result, error) {
	out := prog.Clone()
	res := &Result{Prog: out}
	for _, a := range out.Analyse() {
		if err := reallocProc(out, a, prof, lists, res); err != nil {
			return nil, fmt.Errorf("regalloc: %s: %w", a.Proc.Name, err)
		}
	}
	return res, nil
}

// procState carries the per-procedure analyses.
type procState struct {
	prog *program.Program
	proc *program.Procedure
	g    *program.CFG
	lp   []program.Loop
	wi   *webInfo

	reuses []Reuse // candidate reuses, stable order
}

func reallocProc(prog *program.Program, a program.Analysis, prof *profile.Profile, lists profile.Lists, res *Result) error {
	ps := &procState{prog: prog, proc: a.Proc, g: a.CFG, lp: a.CFG.NaturalLoops()}
	ps.wi = buildWebs(prog, a.Proc, a.CFG, a.Live)

	ps.collectReuses(prof, lists)

	active := make([]bool, len(ps.reuses))
	for i := range active {
		active[i] = true
	}
	for {
		ok, dropIdx := ps.tryColourWith(active)
		if ok {
			break
		}
		if dropIdx < 0 {
			for i := range active {
				if active[i] {
					active[i] = false
					if !ps.reuses[i].Protect {
						res.Dropped = append(res.Dropped, ps.reuses[i])
						countDrop(ps.reuses[i], res)
					}
				}
			}
			break
		}
		active[dropIdx] = false
		if !ps.reuses[dropIdx].Protect {
			res.Dropped = append(res.Dropped, ps.reuses[dropIdx])
			countDrop(ps.reuses[dropIdx], res)
		}
	}

	colours, applied, illegal := ps.colourFinal(active)
	for _, ri := range applied {
		switch {
		case ps.reuses[ri].Protect:
			// guards are bookkeeping, not new reuse
		case ps.reuses[ri].LVR:
			res.LVApplied++
		default:
			res.DeadApplied++
		}
	}
	for _, ri := range illegal {
		if ps.reuses[ri].Protect {
			continue
		}
		res.Dropped = append(res.Dropped, ps.reuses[ri])
		countDrop(ps.reuses[ri], res)
	}
	ps.rewrite(colours)
	return nil
}

func countDrop(r Reuse, res *Result) {
	if r.LVR {
		res.LVDropped++
	} else {
		res.DeadDropped++
	}
}

// destWeb returns the web of the instruction's destination definition,
// or -1 when it has none.
func (ps *procState) destWeb(inst int) int {
	in := ps.prog.Insts[inst]
	d, ok := in.Dest()
	if !ok {
		return -1
	}
	id, ok2 := ps.wi.defIDAt[useKey{inst, d}]
	if !ok2 {
		return -1
	}
	return ps.wi.webOfDef[id]
}

// collectReuses pulls this procedure's dead-register and LVR candidates
// from the profile lists, annotated with loop depth and criticality.
func (ps *procState) collectReuses(prof *profile.Profile, lists profile.Lists) {
	add := func(r Reuse) { ps.reuses = append(ps.reuses, r) }
	for idx, reg := range lists.Dead {
		if idx < ps.proc.Start || idx >= ps.proc.End {
			continue
		}
		is := prof.Insts[idx]
		if is == nil {
			continue
		}
		li := ps.g.InnermostLoop(ps.lp, idx)
		depth := 0
		if li >= 0 {
			depth = ps.lp[li].Depth
		}
		add(Reuse{Inst: idx, Reg: reg, Producer: is.DeadProducer, Depth: depth, Crit: is.CritHits})
	}
	for idx := range lists.LV {
		if idx < ps.proc.Start || idx >= ps.proc.End {
			continue
		}
		is := prof.Insts[idx]
		if is == nil {
			continue
		}
		li := ps.g.InnermostLoop(ps.lp, idx)
		if li < 0 {
			continue // LVR outside any loop is abandoned outright
		}
		add(Reuse{Inst: idx, LVR: true, Depth: ps.lp[li].Depth, Crit: is.CritHits})
	}
	// Existing same-register reuse must survive re-colouring: protect it
	// with the same exclusivity edges an LVR instruction gets.
	for idx := range lists.Same {
		if idx < ps.proc.Start || idx >= ps.proc.End {
			continue
		}
		is := prof.Insts[idx]
		if is == nil {
			continue
		}
		li := ps.g.InnermostLoop(ps.lp, idx)
		if li < 0 {
			continue
		}
		add(Reuse{Inst: idx, LVR: true, Protect: true, Depth: ps.lp[li].Depth, Crit: is.CritHits})
	}
	sort.Slice(ps.reuses, func(i, j int) bool { return ps.reuses[i].Inst < ps.reuses[j].Inst })
}

// pruneOrder returns indices of active reuses in the order they should be
// abandoned: LVR before dead reuse; outer loops (small depth) first;
// within that, lowest critical-path contribution first.
func (ps *procState) pruneOrder(active []bool) []int {
	var idxs []int
	for i, a := range active {
		if a {
			idxs = append(idxs, i)
		}
	}
	sort.SliceStable(idxs, func(a, b int) bool {
		ra, rb := ps.reuses[idxs[a]], ps.reuses[idxs[b]]
		if ra.Protect != rb.Protect {
			return rb.Protect // guards of existing reuse go last
		}
		if ra.LVR != rb.LVR {
			return ra.LVR // LVR pruned first
		}
		if ra.Depth != rb.Depth {
			return ra.Depth < rb.Depth // outer loops first
		}
		return ra.Crit < rb.Crit // least critical first
	})
	return idxs
}

// rewrite renames every register operand in the procedure through the
// per-web colour assignment.
func (ps *procState) rewrite(colour map[int]isa.Reg) {
	mapDef := func(inst int, r isa.Reg) isa.Reg {
		if r.IsZero() {
			return r
		}
		if id, ok := ps.wi.defIDAt[useKey{inst, r}]; ok {
			if c, ok2 := colour[ps.wi.webOfDef[id]]; ok2 {
				return c
			}
		}
		return r
	}
	mapUse := func(inst int, r isa.Reg) isa.Reg {
		if r.IsZero() {
			return r
		}
		if w, ok := ps.wi.useWebAt[useKey{inst, r}]; ok {
			if c, ok2 := colour[w]; ok2 {
				return c
			}
		}
		return r
	}
	for i := ps.proc.Start; i < ps.proc.End; i++ {
		in := &ps.prog.Insts[i]
		orig := *in
		// Sources first (they may share fields with the dest).
		srcSet := map[isa.Reg]bool{}
		for _, r := range orig.Sources(nil) {
			srcSet[r] = true
		}
		if d, ok := orig.Dest(); ok {
			in.Rd = mapDef(i, d)
		} else if srcSet[orig.Rd] {
			in.Rd = mapUse(i, orig.Rd)
		}
		if srcSet[orig.Ra] {
			in.Ra = mapUse(i, orig.Ra)
		}
		if srcSet[orig.Rb] {
			in.Rb = mapUse(i, orig.Rb)
		}
	}
}
