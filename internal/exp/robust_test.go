package exp

// Robustness e2e tests: a sweep where some workloads are forced (via
// fault injection) to error, panic, or hang past the watchdog must still
// complete and emit a partial table with the failed cells annotated,
// rather than sinking the whole experiment.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/stats"
)

func robustRunner(t *testing.T, faults map[string]faultinject.Config) *Runner {
	t.Helper()
	return NewRunner(Options{
		Insts:          100_000,
		ProfileInsts:   50_000,
		Parallel:       true,
		WatchdogCycles: 200_000,
		Faults:         faults,
	})
}

// requireFailed asserts every row of the table marks the workload's
// column failed, and no other workload column is marked.
func requireFailed(t *testing.T, tab *stats.Table, wl string) {
	t.Helper()
	for _, label := range tab.RowLabels() {
		if _, ok := tab.Failed(label, wl); !ok {
			t.Errorf("row %q: column %q not marked failed", label, wl)
		}
		for _, n := range names() {
			if n == wl {
				continue
			}
			if reason, ok := tab.Failed(label, n); ok {
				t.Errorf("row %q: healthy workload %q marked failed: %s", label, n, reason)
			}
		}
	}
}

// TestPartialSweepOnError forces one workload's runs to fail at the
// first commit batch: the sweep reports the failure but the other
// eight workloads' results survive.
func TestPartialSweepOnError(t *testing.T) {
	r := robustRunner(t, map[string]faultinject.Config{
		"li": {FailAfter: 1},
	})
	tab, err := r.Figure5()
	if err == nil {
		t.Fatal("sweep with an injected failure returned no error")
	}
	if !errors.Is(err, simerr.ErrInjected) {
		t.Fatalf("want ErrInjected in joined error, got %v", err)
	}
	if !strings.Contains(err.Error(), "li") {
		t.Fatalf("error does not name the failed workload: %v", err)
	}
	if tab == nil {
		t.Fatal("no partial table returned")
	}
	requireFailed(t, tab, "li")
	for _, label := range tab.RowLabels() {
		row := tab.Row(label)
		for _, n := range names() {
			if n == "li" {
				continue
			}
			if row[n] <= 0 {
				t.Errorf("row %q: healthy workload %q has no result", label, n)
			}
		}
		if row["average"] <= 0 {
			t.Errorf("row %q: average over surviving workloads missing", label)
		}
	}
	if len(tab.Notes) == 0 || !strings.Contains(strings.Join(tab.Notes, "\n"), "li") {
		t.Errorf("failure footnote missing: %v", tab.Notes)
	}
	if !strings.Contains(tab.String(), "ERR") {
		t.Error("rendered table does not show ERR for failed cells")
	}
}

// TestPartialSweepOnPanic forces one workload to panic inside the run:
// the runner's recover turns it into an attributed error and the sweep
// still completes.
func TestPartialSweepOnPanic(t *testing.T) {
	r := robustRunner(t, map[string]faultinject.Config{
		"mgrid": {PanicAfter: 1},
	})
	tab, err := r.Figure5()
	if err == nil {
		t.Fatal("sweep with an injected panic returned no error")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "mgrid") {
		t.Fatalf("panic not converted to an attributed error: %v", err)
	}
	if tab == nil {
		t.Fatal("no partial table returned")
	}
	requireFailed(t, tab, "mgrid")
}

// TestPartialSweepOnHang forces one workload's memory accesses to stall
// past the watchdog: the run aborts with ErrNoProgress instead of
// hanging, and the sweep completes with the cell marked.
func TestPartialSweepOnHang(t *testing.T) {
	r := robustRunner(t, map[string]faultinject.Config{
		"perl": {MemEvery: 10, MemExtra: 1_000_000},
	})
	tab, err := r.Figure5()
	if err == nil {
		t.Fatal("sweep with a hung workload returned no error")
	}
	if !errors.Is(err, simerr.ErrNoProgress) {
		t.Fatalf("want ErrNoProgress in joined error, got %v", err)
	}
	if tab == nil {
		t.Fatal("no partial table returned")
	}
	requireFailed(t, tab, "perl")
}

// TestTransientFaultRetried checks a fault marked transient is retried
// by forEach and the sweep succeeds end to end: the same injector keeps
// counting, so the retry's commit batches pass.
func TestTransientFaultRetried(t *testing.T) {
	r := robustRunner(t, map[string]faultinject.Config{
		"su2cor": {Transient: 1},
	})
	tab, err := r.Figure5()
	if err != nil {
		t.Fatalf("transient fault not absorbed by retry: %v", err)
	}
	if cells := tab.FailedCells(); len(cells) != 0 {
		t.Fatalf("cells marked failed after successful retry: %v", cells)
	}
}

// TestSweepContextCanceled checks a canceled runner context aborts the
// whole sweep with context.Canceled and still yields the partial table.
func TestSweepContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{
		Insts:        100_000,
		ProfileInsts: 50_000,
		Parallel:     true,
		Context:      ctx,
	})
	tab, err := r.Figure5()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if tab == nil {
		t.Fatal("no partial table returned")
	}
	for _, label := range tab.RowLabels() {
		for _, n := range names() {
			if _, ok := tab.Failed(label, n); !ok {
				t.Errorf("row %q column %q not marked failed after cancellation", label, n)
			}
		}
	}
}

// TestFaultedCellsNeverShared: a fault injector is sticky across its
// workload's runs, so a faulted cell's result is not a function of its
// key. Two identical cells of a faulted workload both simulate, while
// the same pair on a healthy workload shares one simulation.
func TestFaultedCellsNeverShared(t *testing.T) {
	reg := obs.NewRegistry()
	var done atomic.Int64
	r := NewRunner(Options{
		Insts:     50_000,
		Faults:    map[string]faultinject.Config{"perl": {MemEvery: 50, MemExtra: 20}},
		Registry:  reg,
		OnRunDone: func(string) { done.Add(1) },
	})
	for _, wl := range []string{"perl", "perl", "go", "go"} {
		if _, err := r.run(wl, pipeline.BaselineConfig(), core.NoPredictor{}); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
	if got := done.Load(); got != 3 {
		t.Errorf("%d simulations, want 3 (two faulted, one shared)", got)
	}
	if got := reg.Counter("exp_cells_reused", "").Value(); got != 1 {
		t.Errorf("exp_cells_reused = %d, want 1 (the healthy pair only)", got)
	}
}
