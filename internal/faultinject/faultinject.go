// Package faultinject deterministically perturbs simulation runs for
// robustness testing: stretching memory latencies, flipping value-
// prediction confidence decisions, failing or panicking at commit-batch
// boundaries (every 1024 commits), and truncating programs. An Injector
// implements pipeline.FaultInjector; every perturbation is a pure
// function of the configuration and the run's own event stream, so a
// faulted run is exactly reproducible.
//
// Faults perturb *timing* and *speculation*, never architecture: the
// oracle-driven pipeline still commits the emulator's correct values, so
// the invariant suite can check that no injected fault ever causes a
// wrong value to commit or a run to hang.
package faultinject

import (
	"fmt"

	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
)

// Config selects which faults an Injector injects. The zero value
// injects nothing.
type Config struct {
	// Seed perturbs which events are hit, so different seeds exercise
	// different instructions without losing determinism.
	Seed uint64

	// MemEvery stretches every Nth data access by MemExtra cycles
	// (0 disables). MemExtra may be large enough to blow a watchdog.
	MemEvery uint64
	MemExtra int

	// FlipEvery inverts every Nth predict/don't-predict decision taken
	// on an eligible instruction (0 disables) — a confidence-counter
	// state flip.
	FlipEvery uint64

	// PanicAfter makes every commit batch from the Nth on panic
	// (0 disables). Panics are sticky so a retried run fails again.
	PanicAfter uint64

	// FailAfter makes every commit batch from the Nth on return an error
	// wrapping simerr.ErrInjected (0 disables). Sticky, like PanicAfter.
	FailAfter uint64

	// Transient makes the first N commit batches return an error marked
	// transient (simerr.IsTransient), then succeed — a fault one retry
	// recovers from (0 disables).
	Transient uint64
}

// Enabled reports whether the configuration injects anything.
func (c Config) Enabled() bool {
	return c.MemEvery > 0 || c.FlipEvery > 0 || c.PanicAfter > 0 ||
		c.FailAfter > 0 || c.Transient > 0
}

// Injector deterministically injects the configured faults. It is
// stateful (event counters persist across runs, so sticky faults stay
// stuck through a retry) and must not be shared between concurrent
// simulations.
type Injector struct {
	cfg Config

	mems      uint64 // data accesses seen
	decisions uint64 // eligible predict decisions seen
	batches   uint64 // commit batches seen

	// Statistics for tests.
	MemFaults  uint64
	FlipFaults uint64
}

// New builds an injector for the configuration.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Config returns the injector's configuration.
func (f *Injector) Config() Config { return f.cfg }

// MemLatency implements pipeline.FaultInjector.
func (f *Injector) MemLatency(addr uint64, now int64, lat int) int {
	if f.cfg.MemEvery == 0 {
		return lat
	}
	f.mems++
	if (f.mems+f.cfg.Seed)%f.cfg.MemEvery == 0 {
		f.MemFaults++
		return lat + f.cfg.MemExtra
	}
	return lat
}

// FlipPredict implements pipeline.FaultInjector.
func (f *Injector) FlipPredict(idx int) bool {
	if f.cfg.FlipEvery == 0 {
		return false
	}
	f.decisions++
	if (f.decisions+f.cfg.Seed)%f.cfg.FlipEvery == 0 {
		f.FlipFaults++
		return true
	}
	return false
}

// CheckPoint implements pipeline.FaultInjector.
func (f *Injector) CheckPoint(committed uint64, cycle int64) error {
	f.batches++
	if f.cfg.PanicAfter > 0 && f.batches >= f.cfg.PanicAfter {
		panic(fmt.Sprintf("faultinject: injected panic at commit batch %d (committed %d, cycle %d)",
			f.batches, committed, cycle))
	}
	if f.cfg.FailAfter > 0 && f.batches >= f.cfg.FailAfter {
		return fmt.Errorf("commit batch %d (committed %d): %w",
			f.batches, committed, simerr.ErrInjected)
	}
	if f.cfg.Transient > 0 && f.batches <= f.cfg.Transient {
		return simerr.Transient(fmt.Errorf("transient commit batch %d: %w",
			f.batches, simerr.ErrInjected))
	}
	return nil
}

// Truncate returns a copy of p keeping only the first n instructions —
// a deterministic model of a corrupted/partial program image. The
// result is intentionally broken (branch targets may dangle, the HALT
// may be gone); emu.New or emu.Step reports the damage as an error, and
// the robustness machinery must surface it rather than hang. n <= 0
// produces an empty program, n >= len(p.Insts) a plain clone.
func Truncate(p *program.Program, n int) *program.Program {
	q := p.Clone()
	if n < 0 {
		n = 0
	}
	if n < len(q.Insts) {
		q.Insts = q.Insts[:n]
		q.Name = fmt.Sprintf("%s_trunc%d", p.Name, n)
	}
	if q.Entry >= len(q.Insts) {
		q.Entry = 0
	}
	return q
}
