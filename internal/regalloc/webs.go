package regalloc

import (
	"math/bits"

	"rvpsim/internal/isa"
	"rvpsim/internal/program"
)

// Web is one allocation unit: a maximal set of definitions of a register
// connected through shared uses (a du-web). Webs of convention registers,
// webs reaching back to procedure entry, and webs containing call-side
// synthetic definitions are pinned: they keep their architectural name.
type Web struct {
	ID     int
	Reg    isa.Reg
	Pinned bool
	Defs   []int // instruction indices of explicit defs (synthetic: -1)
}

// defRecord is one definition point.
type defRecord struct {
	inst  int // instruction index; -1 for entry/synthetic
	reg   isa.Reg
	synth bool // entry or call-clobber definition
}

type useKey struct {
	inst int
	reg  isa.Reg
}

// webInfo is the result of web construction for one procedure.
type webInfo struct {
	webs     []*Web
	webOfDef []int          // def id -> web id
	defIDAt  map[useKey]int // (inst, reg) -> explicit def id
	useWebAt map[useKey]int // (inst, reg) -> web id of the use
	adj      [][]bool       // web interference matrix
}

// bitset over def ids.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear() {
	for i := range b {
		b[i] = 0
	}
}
func (b bitset) copyFrom(o bitset) { copy(b, o) }
func (b bitset) orInto(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}
func (b bitset) forEach(f func(i int)) {
	for w, word := range b {
		for word != 0 {
			i := w*64 + bits.TrailingZeros64(word)
			f(i)
			word &= word - 1
		}
	}
}

// dfUnion is a union-find over def ids.
type dfUnion []int

func (u dfUnion) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u dfUnion) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u[rb] = ra
	}
}

// buildWebs performs reaching-definitions analysis over the procedure,
// merges definitions that share uses into webs, and constructs the web
// interference graph (def-point vs live-web, Chaitin style).
func buildWebs(prog *program.Program, proc *program.Procedure, g *program.CFG, live *program.Liveness) *webInfo {
	// --- Enumerate definitions.
	var defs []defRecord
	defIDAt := map[useKey]int{}
	addDef := func(d defRecord) int {
		defs = append(defs, d)
		id := len(defs) - 1
		if !d.synth {
			defIDAt[useKey{d.inst, d.reg}] = id
		}
		return id
	}
	entryDef := map[isa.Reg]int{}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if r.IsZero() {
			continue
		}
		entryDef[r] = addDef(defRecord{inst: -1, reg: r, synth: true})
	}
	// Per-instruction definition lists (explicit first, then clobbers).
	instDefs := make([][]int, proc.End-proc.Start)
	for i := proc.Start; i < proc.End; i++ {
		in := prog.Insts[i]
		var ids []int
		d, hasDest := in.Dest()
		if hasDest {
			ids = append(ids, addDef(defRecord{inst: i, reg: d}))
		}
		if in.Op == isa.JSR {
			program.CallClobbers.Each(func(r isa.Reg) {
				if !hasDest || r != d {
					ids = append(ids, addDef(defRecord{inst: i, reg: r, synth: true}))
				}
			})
		}
		instDefs[i-proc.Start] = ids
	}
	nd := len(defs)

	// --- Reaching definitions (per-register def sets), block level.
	nb := len(g.Blocks)
	type state []bitset // indexed by register
	newState := func() state {
		s := make(state, isa.NumRegs)
		for r := range s {
			s[r] = newBitset(nd)
		}
		return s
	}
	ins := make([]state, nb)
	outs := make([]state, nb)
	for b := 0; b < nb; b++ {
		ins[b] = newState()
		outs[b] = newState()
	}
	// Entry block starts with the entry definitions.
	for r, id := range entryDef {
		ins[0][r].set(id)
	}
	applyBlock := func(b int, st state) {
		for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
			for _, id := range instDefs[i-proc.Start] {
				r := defs[id].reg
				st[r].clear()
				st[r].set(id)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for b := 0; b < nb; b++ {
			// in[b] = union of preds' outs (entry keeps its seed).
			for _, p := range g.Blocks[b].Preds {
				for r := 0; r < isa.NumRegs; r++ {
					if ins[b][r].orInto(outs[p][r]) {
						changed = true
					}
				}
			}
			tmp := newState()
			for r := 0; r < isa.NumRegs; r++ {
				tmp[r].copyFrom(ins[b][r])
			}
			applyBlock(b, tmp)
			for r := 0; r < isa.NumRegs; r++ {
				if outs[b][r].orInto(tmp[r]) {
					changed = true
				}
			}
		}
	}

	// --- Final walk: merge defs reaching each use into webs, record the
	// use's representative def, and build interference.
	uf := make(dfUnion, nd)
	for i := range uf {
		uf[i] = i
	}
	useRep := map[useKey]int{}
	// First pass: merges and use representatives.
	walk := func(visit func(i int, st state)) {
		for b := 0; b < nb; b++ {
			st := newState()
			for r := 0; r < isa.NumRegs; r++ {
				st[r].copyFrom(ins[b][r])
			}
			for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
				visit(i, st)
				for _, id := range instDefs[i-proc.Start] {
					r := defs[id].reg
					st[r].clear()
					st[r].set(id)
				}
			}
		}
	}
	recordUse := func(i int, r isa.Reg, st state) {
		first := -1
		st[r].forEach(func(id int) {
			if first < 0 {
				first = id
			} else {
				uf.union(first, id)
			}
		})
		if first >= 0 {
			useRep[useKey{i, r}] = first
		}
	}
	walk(func(i int, st state) {
		program.Uses(prog.Insts[i]).Each(func(r isa.Reg) { recordUse(i, r, st) })
	})

	// --- Webs from the union-find.
	webOfRoot := map[int]int{}
	wi := &webInfo{defIDAt: defIDAt, useWebAt: map[useKey]int{}}
	wi.webOfDef = make([]int, nd)
	for id := 0; id < nd; id++ {
		root := uf.find(id)
		w, ok := webOfRoot[root]
		if !ok {
			w = len(wi.webs)
			webOfRoot[root] = w
			wi.webs = append(wi.webs, &Web{ID: w, Reg: defs[id].reg})
		}
		wi.webOfDef[id] = w
		web := wi.webs[w]
		if defs[id].synth {
			web.Pinned = true
		} else {
			web.Defs = append(web.Defs, defs[id].inst)
		}
		if program.ConventionRegs.Has(defs[id].reg) {
			web.Pinned = true
		}
	}
	for k, rep := range useRep {
		wi.useWebAt[k] = wi.webOfDef[uf.find(rep)]
	}

	// --- Interference: each definition point interferes with every web
	// (same register file) live after it.
	n := len(wi.webs)
	wi.adj = make([][]bool, n)
	for i := range wi.adj {
		wi.adj[i] = make([]bool, n)
	}
	walk(func(i int, st state) {
		ids := instDefs[i-proc.Start]
		if len(ids) == 0 {
			return
		}
		definedHere := map[isa.Reg]int{}
		for _, id := range ids {
			definedHere[defs[id].reg] = id
		}
		out := live.LiveOut(i)
		for _, id := range ids {
			wd := wi.webOfDef[id]
			dreg := defs[id].reg
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if r.IsZero() || !out.Has(r) || r.IsFP() != dreg.IsFP() {
					continue
				}
				if r == dreg {
					continue // the def itself provides r's live value
				}
				if oid, ok := definedHere[r]; ok {
					// r's live value post-instruction comes from a
					// sibling def at this instruction.
					ow := wi.webOfDef[oid]
					if ow != wd {
						wi.adj[wd][ow] = true
						wi.adj[ow][wd] = true
					}
					continue
				}
				st[r].forEach(func(oid int) {
					ow := wi.webOfDef[oid]
					if ow != wd {
						wi.adj[wd][ow] = true
						wi.adj[ow][wd] = true
					}
				})
			}
		}
	})
	return wi
}
