package regalloc

import (
	"sort"

	"rvpsim/internal/isa"
	"rvpsim/internal/program"
)

// trial is one attempted application of a set of reuses to the
// procedure's web interference graph: a union-find over webs (merges),
// extra LVR interference edges, and the lists of applied and structurally
// illegal reuses.
type trial struct {
	ps      *procState
	parent  []int
	extra   map[[2]int]bool
	applied []int // indices into ps.reuses that were applied
	illegal []int // indices that proved structurally illegal
}

func (t *trial) find(w int) int {
	for t.parent[w] != w {
		t.parent[w] = t.parent[t.parent[w]]
		w = t.parent[w]
	}
	return w
}

// union merges two web groups, keeping a pinned web as root when present.
func (t *trial) union(a, b int) {
	ra, rb := t.find(a), t.find(b)
	if ra == rb {
		return
	}
	if t.ps.wi.webs[rb].Pinned {
		ra, rb = rb, ra
	}
	t.parent[rb] = ra
}

func (t *trial) pinnedGroup(w int) bool { return t.ps.wi.webs[t.find(w)].Pinned }

// groupsInterfere lifts base adjacency plus LVR extras through the
// union-find.
func (t *trial) groupsInterfere(a, b int) bool {
	ga, gb := t.find(a), t.find(b)
	if ga == gb {
		return false
	}
	n := len(t.ps.wi.webs)
	for x := 0; x < n; x++ {
		if t.find(x) != ga {
			continue
		}
		for y := 0; y < n; y++ {
			if t.find(y) != gb {
				continue
			}
			if t.ps.wi.adj[x][y] || t.extra[[2]int{x, y}] || t.extra[[2]int{y, x}] {
				return true
			}
		}
	}
	return false
}

// build applies the active reuses: dead-register merges first, then LVR
// edges, collecting structural illegality as it goes.
func (t *trial) build(active []bool) {
	ps := t.ps
	n := len(ps.wi.webs)
	t.parent = make([]int, n)
	for i := range t.parent {
		t.parent[i] = i
	}
	t.extra = make(map[[2]int]bool)
	t.applied = t.applied[:0]
	t.illegal = t.illegal[:0]

	// Dead-register merges: merge the reusing instruction's destination
	// web with the primary producer's web.
	for i, ru := range ps.reuses {
		if !active[i] || ru.LVR {
			continue
		}
		dw := ps.destWeb(ru.Inst)
		sw := -1
		if ru.Producer >= ps.proc.Start && ru.Producer < ps.proc.End {
			in := ps.prog.Insts[ru.Producer]
			if d, ok := in.Dest(); ok && d == ru.Reg {
				sw = ps.destWeb(ru.Producer)
			}
		}
		switch {
		case dw < 0 || sw < 0:
			t.illegal = append(t.illegal, i)
		case ps.wi.webs[dw].Reg.IsFP() != ps.wi.webs[sw].Reg.IsFP():
			t.illegal = append(t.illegal, i)
		case t.pinnedGroup(dw) && t.pinnedGroup(sw) && t.find(dw) != t.find(sw):
			// Two convention-pinned names cannot merge.
			t.illegal = append(t.illegal, i)
		case t.pinnedGroup(dw) || t.pinnedGroup(sw):
			// Mirrors the paper's "no reuse of registers defined in other
			// procedures": pinned webs keep their identity.
			t.illegal = append(t.illegal, i)
		case t.groupsInterfere(dw, sw):
			// Live ranges conflict (e.g. the reusing range wraps around
			// and overlaps the producer) — abandoned, per the paper.
			t.illegal = append(t.illegal, i)
		default:
			t.union(dw, sw)
			t.applied = append(t.applied, i)
		}
	}

	// LVR interference edges: the destination web must own its colour for
	// the whole innermost loop.
	for i, ru := range ps.reuses {
		if !active[i] || !ru.LVR {
			continue
		}
		dw := ps.destWeb(ru.Inst)
		if dw < 0 || t.pinnedGroup(dw) {
			t.illegal = append(t.illegal, i)
			continue
		}
		li := ps.g.InnermostLoop(ps.lp, ru.Inst)
		if li < 0 {
			t.illegal = append(t.illegal, i)
			continue
		}
		dFP := ps.wi.webs[dw].Reg.IsFP()
		ok := true
		var edges [][2]int
		for _, j := range ps.lp[li].Insts {
			if j == ru.Inst {
				continue
			}
			ow := ps.destWeb(j)
			if ow < 0 || ps.wi.webs[ow].Reg.IsFP() != dFP {
				continue
			}
			if t.find(ow) == t.find(dw) {
				// Another definition in the loop already shares the
				// colour — LVR unusable (Section 7.3).
				ok = false
				break
			}
			edges = append(edges, [2]int{dw, ow})
		}
		if !ok {
			t.illegal = append(t.illegal, i)
			continue
		}
		for _, e := range edges {
			t.extra[e] = true
		}
		t.applied = append(t.applied, i)
	}
}

// colour runs Chaitin simplify/select over the trial's group graph.
// Pinned groups are precoloured with their web's register. It returns the
// per-group colour map and ok == false when simplify stalls.
func (t *trial) colour() (map[int]isa.Reg, bool) {
	n := len(t.ps.wi.webs)
	groups := map[int]bool{}
	for w := 0; w < n; w++ {
		groups[t.find(w)] = true
	}
	neighbours := map[int]map[int]bool{}
	addEdge := func(x, y int) {
		gx, gy := t.find(x), t.find(y)
		if gx == gy {
			return
		}
		if neighbours[gx] == nil {
			neighbours[gx] = map[int]bool{}
		}
		if neighbours[gy] == nil {
			neighbours[gy] = map[int]bool{}
		}
		neighbours[gx][gy] = true
		neighbours[gy][gx] = true
	}
	for x := 0; x < n; x++ {
		for y := x + 1; y < n; y++ {
			if t.ps.wi.adj[x][y] || t.extra[[2]int{x, y}] || t.extra[[2]int{y, x}] {
				addEdge(x, y)
			}
		}
	}

	assignment := map[int]isa.Reg{}
	var work []int
	for g := range groups {
		if t.ps.wi.webs[g].Pinned {
			assignment[g] = t.ps.wi.webs[g].Reg
		} else {
			work = append(work, g)
		}
	}
	sort.Ints(work)

	isFP := func(g int) bool { return t.ps.wi.webs[g].Reg.IsFP() }
	palSize := func(g int) int {
		if isFP(g) {
			return len(fpPalette)
		}
		return len(intPalette)
	}
	removed := map[int]bool{}
	// Degree counts same-file neighbours; pinned neighbours with colours
	// outside the palette cannot actually conflict, so they are excluded
	// from degree but their colours are respected at select time.
	inPalette := func(r isa.Reg) bool { return !program.ConventionRegs.Has(r) }
	degree := func(g int) int {
		d := 0
		for nb := range neighbours[g] {
			if removed[nb] || isFP(nb) != isFP(g) {
				continue
			}
			if c, ok := assignment[nb]; ok && !inPalette(c) {
				continue
			}
			d++
		}
		return d
	}

	var stack []int
	remaining := len(work)
	for remaining > 0 {
		found := false
		for _, g := range work {
			if removed[g] {
				continue
			}
			if degree(g) < palSize(g) {
				stack = append(stack, g)
				removed[g] = true
				remaining--
				found = true
			}
		}
		if !found {
			return nil, false // simplify stalled; caller prunes a reuse
		}
	}

	// Select, preferring each group's own register when available.
	for i := len(stack) - 1; i >= 0; i-- {
		g := stack[i]
		used := map[isa.Reg]bool{}
		for nb := range neighbours[g] {
			if c, ok := assignment[nb]; ok {
				used[c] = true
			}
		}
		pal := intPalette
		if isFP(g) {
			pal = fpPalette
		}
		own := t.ps.wi.webs[g].Reg
		chosen := isa.Reg(255)
		if inPalette(own) && !used[own] {
			chosen = own
		} else {
			for _, c := range pal {
				if !used[c] {
					chosen = c
					break
				}
			}
		}
		if chosen == 255 {
			return nil, false
		}
		assignment[g] = chosen
	}
	return assignment, true
}

// tryColourWith builds a trial for the active set and attempts colouring.
// On failure it returns the index of the reuse to prune next (-1 when no
// active reuse remains to prune).
func (ps *procState) tryColourWith(active []bool) (bool, int) {
	t := &trial{ps: ps}
	t.build(active)
	if _, ok := t.colour(); ok {
		return true, -1
	}
	order := ps.pruneOrder(active)
	appliedSet := map[int]bool{}
	for _, i := range t.applied {
		appliedSet[i] = true
	}
	for _, i := range order {
		if appliedSet[i] {
			return false, i
		}
	}
	if len(order) > 0 {
		return false, order[0]
	}
	return false, -1
}

// colourFinal builds the final trial, colours it (falling back to the
// identity assignment if Chaitin unexpectedly stalls), and returns the
// per-web colour map, the applied reuse indices, and the structurally
// illegal reuse indices.
func (ps *procState) colourFinal(active []bool) (map[int]isa.Reg, []int, []int) {
	t := &trial{ps: ps}
	t.build(active)
	assignment, ok := t.colour()
	if !ok {
		// Identity fallback: no rewrite.
		return map[int]isa.Reg{}, nil, append(append([]int(nil), t.applied...), t.illegal...)
	}
	colours := make(map[int]isa.Reg, len(ps.wi.webs))
	for w := range ps.wi.webs {
		g := t.find(w)
		if c, okc := assignment[g]; okc {
			colours[w] = c
		} else {
			colours[w] = ps.wi.webs[w].Reg
		}
	}
	return colours, append([]int(nil), t.applied...), append([]int(nil), t.illegal...)
}
