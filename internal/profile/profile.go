// Package profile implements the paper's register-reuse profiler
// (Section 5). It runs a program once on the functional emulator, with
// static liveness from program.Analyse, and measures, for every
// register-writing static instruction:
//
//   - same-register reuse: the result equals the destination register's
//     prior value;
//   - dead/live-register correlation: the result equals the current value
//     of some other register, classified by static liveness at that point;
//   - last-value reuse: the result equals the instruction's own previous
//     result;
//   - any-register reuse, and "register or last value" (Figure 1);
//   - execution frequency, loop criticality inputs, and the primary
//     producer of each correlated register's value (needed by the
//     Section 7.3 register re-allocator).
//
// From the raw profile it derives the four instruction lists the paper's
// compiler model consumes (same / dead / live / last-value) at a given
// predictability threshold, and converts them into core.ReuseHints.
package profile

import (
	"fmt"

	"rvpsim/internal/emu"
	"rvpsim/internal/isa"
	"rvpsim/internal/program"
)

// InstStats is the raw profile of one static instruction.
type InstStats struct {
	Index int
	Inst  isa.Inst

	Execs    uint64
	SameHits uint64 // result == prior value of the destination register
	LastHits uint64 // result == this instruction's previous result
	AnyHits  uint64 // result == some register's current value
	DeadHits uint64 // result == some statically-dead register's value
	OrLVHits uint64 // AnyHits condition or LastHits condition

	// Best correlated register among statically dead candidates and among
	// live candidates, with their hit counts.
	BestDead     isa.Reg
	BestDeadHits uint64
	BestLive     isa.Reg
	BestLiveHits uint64

	// Primary producer (static index) of the value found in BestDead /
	// BestLive, and how often that producer supplied it. -1 when unknown.
	DeadProducer int
	LiveProducer int

	// CritHits counts executions in which this instruction's result was
	// the latest-arriving (chain-height-maximal) input of a consumer — a
	// cheap critical-path profile in the spirit of [15].
	CritHits uint64
}

// Rate helpers. Each returns 0 when the instruction never executed.
func rate(h, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return float64(h) / float64(n)
}

// SameRate is the same-register reuse fraction.
func (s *InstStats) SameRate() float64 { return rate(s.SameHits, s.Execs) }

// LastRate is the last-value reuse fraction.
func (s *InstStats) LastRate() float64 { return rate(s.LastHits, s.Execs) }

// BestDeadRate is the best single dead register's hit fraction.
func (s *InstStats) BestDeadRate() float64 { return rate(s.BestDeadHits, s.Execs) }

// BestLiveRate is the best single live register's hit fraction.
func (s *InstStats) BestLiveRate() float64 { return rate(s.BestLiveHits, s.Execs) }

// Profile is the result of profiling one program.
type Profile struct {
	Prog  *program.Program
	Insts map[int]*InstStats // keyed by static instruction index
	Total uint64             // committed instructions profiled
	Loads uint64             // committed loads
}

// Options configures the profiler.
type Options struct {
	MaxInsts uint64 // committed-instruction budget (0 = to completion)
}

// Run profiles prog in one run of the program. It counts reuse, tracks
// the last static writer of each register, and credits that writer every
// time its value matches a result, so once the best dead and live
// correlated registers are chosen their primary producers are already
// counted.
func Run(prog *program.Program, opts Options) (*Profile, error) {
	if len(prog.Insts) == 0 {
		return nil, fmt.Errorf("profile: empty program")
	}
	st, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	liveIn := liveBefore(prog)
	p := &Profile{Prog: prog, Insts: make(map[int]*InstStats)}
	pass := make([]*instPass, len(prog.Insts)) // by static index

	// Chain heights for the critical-path profile, and each register's
	// last static writer.
	var height [isa.NumRegs]uint64
	var producerIdx [isa.NumRegs]int
	for i := range producerIdx {
		producerIdx[i] = -1
	}
	var srcs [3]isa.Reg
	for {
		if opts.MaxInsts > 0 && p.Total >= opts.MaxInsts {
			break
		}
		// Snapshot register values before the step.
		regs := st.Regs
		e, ok := st.Step()
		if !ok {
			break
		}
		p.Total++
		if isa.IsLoad(e.Inst.Op) {
			p.Loads++
		}

		// Critical-path credit: the maximal-height source's producer.
		var h uint64
		bestSrc := -1
		for _, r := range e.Inst.Sources(srcs[:0]) {
			if r.IsZero() {
				continue
			}
			if height[r] >= h {
				h = height[r]
				bestSrc = producerIdx[r]
			}
		}
		if bestSrc >= 0 {
			if bs := pass[bestSrc]; bs != nil {
				bs.stats.CritHits++
			}
		}

		if !e.WroteRd {
			continue
		}
		ps := pass[e.Index]
		if ps == nil {
			ps = &instPass{stats: &InstStats{Index: e.Index, Inst: e.Inst, DeadProducer: -1, LiveProducer: -1}}
			pass[e.Index] = ps
		}
		is := ps.stats
		is.Execs++
		v := e.NewDest
		wasLast := ps.seen && ps.last == v
		if v == e.OldDest {
			is.SameHits++
		}
		if wasLast {
			is.LastHits++
		}
		ps.last, ps.seen = v, true

		any, dead := false, false
		for r := 0; r < isa.NumRegs; r++ {
			reg := isa.Reg(r)
			if reg.IsZero() || reg == e.Inst.Rd || regs[r] != v {
				continue
			}
			ps.hits[r]++
			if w := producerIdx[r]; w >= 0 {
				ps.credit(reg, w)
			}
			any = true
			if !liveIn[e.Index].Has(reg) {
				dead = true
			}
		}
		if any || v == e.OldDest {
			is.AnyHits++
		}
		if dead {
			is.DeadHits++
		}
		// Figure 1's last bar: the value is in some register now, or was
		// this instruction's previous result.
		if any || v == e.OldDest || wasLast {
			is.OrLVHits++
		}

		height[e.Inst.Rd] = h + 1
		producerIdx[e.Inst.Rd] = e.Index
	}

	// Select the best dead and live correlated registers per instruction,
	// and the majority producer of each.
	for idx, ps := range pass {
		if ps == nil {
			continue
		}
		is := ps.stats
		p.Insts[idx] = is
		for r := 0; r < isa.NumRegs; r++ {
			reg := isa.Reg(r)
			if reg.IsZero() || reg == is.Inst.Rd || ps.hits[r] == 0 {
				continue
			}
			if !liveIn[idx].Has(reg) {
				if ps.hits[r] > is.BestDeadHits {
					is.BestDeadHits = ps.hits[r]
					is.BestDead = reg
				}
			} else if ps.hits[r] > is.BestLiveHits {
				is.BestLiveHits = ps.hits[r]
				is.BestLive = reg
			}
		}
		if is.BestDeadHits > 0 {
			is.DeadProducer = ps.majority(is.BestDead)
		}
		if is.BestLiveHits > 0 {
			is.LiveProducer = ps.majority(is.BestLive)
		}
	}
	return p, nil
}

// instPass is one static instruction's state during the profiling run:
// its statistics, its previous result and, per register, how often the
// register held the result and which static instructions had written it
// then.
type instPass struct {
	stats     *InstStats
	last      uint64
	seen      bool
	hits      [isa.NumRegs]uint64
	producers [isa.NumRegs][]producerCount
}

type producerCount struct {
	inst int
	n    uint64
}

// credit counts one match of reg whose value static instruction w wrote.
func (ps *instPass) credit(reg isa.Reg, w int) {
	pc := ps.producers[reg]
	for i := range pc {
		if pc[i].inst == w {
			pc[i].n++
			return
		}
	}
	ps.producers[reg] = append(pc, producerCount{inst: w, n: 1})
}

// majority returns the static instruction that most often wrote reg's
// matching value (the smallest index on a tie), or -1 when none did.
func (ps *instPass) majority(reg isa.Reg) int {
	best, bestN := -1, uint64(0)
	for _, pc := range ps.producers[reg] {
		if pc.n > bestN || (pc.n == bestN && pc.inst < best) {
			best, bestN = pc.inst, pc.n
		}
	}
	return best
}

// liveBefore returns, per instruction, the registers statically live
// immediately before it executes. An instruction outside every
// procedure counts every register as live.
func liveBefore(prog *program.Program) []program.RegSet {
	out := make([]program.RegSet, len(prog.Insts))
	for i := range out {
		out[i] = ^program.RegSet(0)
	}
	for _, a := range prog.Analyse() {
		for i := a.Proc.Start; i < a.Proc.End; i++ {
			out[i] = a.Live.LiveIn(i)
		}
	}
	return out
}
