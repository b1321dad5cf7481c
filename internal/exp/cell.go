package exp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// cell is one entry of the Runner's cell table: the result of simulating
// one cell key, resolved at most once. done closes when st and err are
// final; a journal-seeded entry is born closed.
type cell struct {
	done chan struct{}
	st   pipeline.Stats
	err  error
	// journaled marks a cell seeded from the journal whose replay has
	// not been handed out yet (guarded by Runner.mu).
	journaled bool
}

// errCellAbandoned is a cell's error until its simulation succeeds, so a
// panicking owner still leaves waiters a failed entry to re-resolve.
var errCellAbandoned = simerr.Newf("exp", "cell simulation abandoned")

// closedDone is the done channel of journal-seeded cells.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// cellKey names what a cell simulates: the program's content, the
// predictor's behavioural identity, the full machine configuration, the
// budget and the warmup. Report names, the figure asking and the
// profiling options that built the predictor are not part of it, so
// every driver that needs the same simulation shares one.
func (r *Runner) cellKey(p *program.Program, pred core.Identified, cfg pipeline.Config) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "prog=%s|pred=%s|cfg=%+v|n=%d|warmup=%d",
		r.programDigest(p), pred.Identity(), cfg, r.opts.Insts, r.opts.WarmupInsts))
	return hex.EncodeToString(sum[:16])
}

// programDigest returns the memoised content digest of a program.
func (r *Runner) programDigest(p *program.Program) string {
	r.mu.Lock()
	d, ok := r.digests[p]
	r.mu.Unlock()
	if ok {
		return d
	}
	d = programDigest(p)
	r.mu.Lock()
	r.digests[p] = d
	r.mu.Unlock()
	return d
}

// programDigest hashes what a program simulates — its instructions,
// entry point, data image, code base and stack top, but not its name —
// so a re-allocated program differs from its original. The fields are
// encoded into a fixed buffer that is hashed a chunk at a time, so a
// large data image costs no allocation of its size.
func programDigest(p *program.Program) string {
	const chunk = 4096
	h := sha256.New()
	buf := make([]byte, 0, chunk+8)
	word := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf, v)
		if len(buf) >= chunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	word(uint64(p.Entry))
	word(p.CodeBase)
	word(p.StackTop)
	word(uint64(len(p.Insts)))
	for _, in := range p.Insts {
		word(uint64(in.Op) | uint64(in.Rd)<<8 | uint64(in.Ra)<<16 | uint64(in.Rb)<<24)
		word(uint64(in.Imm))
	}
	word(uint64(len(p.Data)))
	for _, c := range p.Data {
		word(c.Addr)
		word(uint64(len(c.Words)))
		for _, w := range c.Words {
			word(w)
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// resolve returns the result for key, simulating it (through sim) only
// if no earlier or concurrent caller has. Concurrent callers of one key
// share the first caller's run. A failed simulation is never cached: it
// is dropped from the table before its waiters wake, and each waiter
// re-resolves the key, so transient retries still simulate. A cell
// seeded from the journal is accounted as a replay the first time it is
// resolved; every other hit is accounted as a reuse.
func (r *Runner) resolve(key, label string, sim func() (pipeline.Stats, error)) (pipeline.Stats, error) {
	for {
		r.mu.Lock()
		c, found := r.cells[key]
		if !found {
			c = &cell{done: make(chan struct{}), err: errCellAbandoned}
			r.cells[key] = c
		}
		replay := c.journaled
		c.journaled = false
		r.mu.Unlock()
		if !found {
			return r.fill(c, key, sim)
		}
		<-c.done
		if c.err != nil {
			continue
		}
		sp := r.opts.Tracer.Start(r.opts.TraceParent, "sim:"+label)
		if replay {
			r.count("exp_journal_replayed", "sweep cells served from the journal instead of re-simulated")
			sp.SetAttr("journal", "replayed")
		} else {
			r.count("exp_cells_reused", "sweep cells served from an earlier identical simulation")
			sp.SetAttr("cell", "reused")
		}
		sp.End()
		if replay && r.opts.OnRunDone != nil {
			r.opts.OnRunDone(label)
		}
		return c.st, nil
	}
}

// fill runs the owning caller's simulation of c and publishes the
// outcome to its waiters.
func (r *Runner) fill(c *cell, key string, sim func() (pipeline.Stats, error)) (pipeline.Stats, error) {
	defer func() {
		if c.err != nil {
			r.mu.Lock()
			delete(r.cells, key)
			r.mu.Unlock()
		}
		close(c.done)
	}()
	st, err := sim()
	if err == nil {
		c.st, c.err = st, nil
	}
	return st, err
}
