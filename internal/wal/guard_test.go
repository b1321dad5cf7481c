package wal

import (
	"errors"
	"io"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"rvpsim/internal/obs"
)

// TestGuardTripsProbesAndHeals drives the degrade/probe/heal cycle: a
// trip degrades and sets the gauge, a failing probe keeps it degraded,
// and the first passing probe heals it on the guard's own cadence.
func TestGuardTripsProbesAndHeals(t *testing.T) {
	var diskOK atomic.Bool
	var probes atomic.Int64
	probe := func() error {
		probes.Add(1)
		if diskOK.Load() {
			return nil
		}
		return errors.New("ENOSPC")
	}
	gauge := obs.NewRegistry().Gauge("degraded", "")
	g := NewGuard(probe, 5*time.Millisecond, gauge, slog.New(slog.NewTextHandler(io.Discard, nil)))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.Run(stop)
		close(done)
	}()
	defer func() {
		close(stop)
		<-done
	}()

	time.Sleep(30 * time.Millisecond)
	if g.Load() || probes.Load() != 0 {
		t.Fatalf("healthy guard degraded=%v after %d probes, want no probes", g.Load(), probes.Load())
	}
	g.Trip(errors.New("append failed"))
	if !g.Load() || gauge.Value() != 1 {
		t.Fatalf("after Trip: degraded=%v gauge=%d", g.Load(), gauge.Value())
	}
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("degraded guard never probed")
		}
		time.Sleep(time.Millisecond)
	}
	if !g.Load() {
		t.Fatalf("guard healed on a failing probe")
	}
	diskOK.Store(true)
	for g.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("guard never healed after the disk returned")
		}
		time.Sleep(time.Millisecond)
	}
	if gauge.Value() != 0 {
		t.Fatalf("healed guard left gauge at %d", gauge.Value())
	}
}
