package wal

import (
	"log/slog"
	"sync/atomic"
	"time"

	"rvpsim/internal/obs"
)

// Guard is the degrade/probe/heal state machine a service keeps around
// its durable log. A failed append trips it: the service sheds new work
// (503 + Retry-After, /readyz not ready) instead of crashing or
// acknowledging writes it cannot persist. While tripped, Run probes the
// disk every probe interval and clears the guard once a durable write
// succeeds again (say, space was freed after ENOSPC).
type Guard struct {
	degraded atomic.Bool
	probe    func() error
	every    time.Duration
	gauge    *obs.Gauge
	log      *slog.Logger
}

// NewGuard builds a healthy guard. probe checks the disk (WAL.Probe),
// every is the probe cadence while degraded, and gauge mirrors the
// state as 0/1.
func NewGuard(probe func() error, every time.Duration, gauge *obs.Gauge, log *slog.Logger) *Guard {
	return &Guard{probe: probe, every: every, gauge: gauge, log: log}
}

// Load reports whether the guard is tripped (storage degraded).
func (g *Guard) Load() bool { return g.degraded.Load() }

// Trip records a failed durable append and degrades the service.
func (g *Guard) Trip(err error) {
	if g.degraded.CompareAndSwap(false, true) {
		g.gauge.Set(1)
		g.log.Error("storage degraded: durable append failed; shedding new work until the disk recovers", "error", err)
	}
}

// Run probes a degraded disk every probe interval until stop closes,
// healing the guard when a probe succeeds.
func (g *Guard) Run(stop <-chan struct{}) {
	t := time.NewTicker(g.every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if !g.degraded.Load() {
				continue
			}
			if err := g.probe(); err != nil {
				g.log.Debug("storage probe failed; staying degraded", "error", err)
				continue
			}
			g.degraded.Store(false)
			g.gauge.Set(0)
			g.log.Info("storage recovered: accepting work again")
		}
	}
}
