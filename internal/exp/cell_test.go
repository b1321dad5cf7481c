package exp

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rvpsim/internal/core"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/workloads"
)

// TestCellKey pins what a cell key separates and what it equates: it
// must follow what a cell simulates, never the report name or the
// figure asking.
func TestCellKey(t *testing.T) {
	opts := Options{Insts: 20_000, ProfileInsts: 20_000}
	r := NewRunner(opts)
	long := opts
	long.Insts = 40_000
	warm := opts
	warm.WarmupInsts = 5_000
	rLong, rWarm := NewRunner(long), NewRunner(warm)

	must := func(p core.Predictor, err error) core.Predictor {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	li, err := r.Program("li")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := r.Profile("li")
	if err != nil {
		t.Fatal(err)
	}
	realloc, err := regalloc.Reallocate(li, pr, pr.Lists(r.opts.Threshold, false, 0))
	if err != nil {
		t.Fatal(err)
	}
	base := pipeline.BaselineConfig()
	selective := pipeline.BaselineConfig()
	selective.Recovery = pipeline.RecoverSelective
	cc1 := core.DefaultCounterConfig()
	cc1.Threshold = 1
	deadLoads := must(r.dynamic(profile.SupportDead, true)("li"))
	deadAll := must(r.dynamic(profile.SupportDead, false)("li"))
	if deadLoads.Name() != deadAll.Name() {
		t.Fatalf("report names %q and %q differ; the case below needs them equal", deadLoads.Name(), deadAll.Name())
	}
	rvp := must(core.NewPredictor("rvp"))

	type side struct {
		r    *Runner
		p    *program.Program
		cfg  pipeline.Config
		pred core.Predictor
	}
	cases := []struct {
		name string
		a, b side
		same bool
	}{
		{"loads-only vs all-instruction drvp_dead",
			side{r, li, base, deadLoads}, side{r, li, base, deadAll}, false},
		{"re-allocated vs original program",
			side{r, realloc.Prog, base, rvp}, side{r, li, base, rvp}, false},
		{"counter threshold 1 vs 7",
			side{r, li, base, must(core.NewDynamicRVP(cc1))}, side{r, li, base, rvp}, false},
		{"baseline vs aggressive machine",
			side{r, li, base, rvp}, side{r, li, pipeline.AggressiveConfig(), rvp}, false},
		{"different budgets",
			side{r, li, base, rvp}, side{rLong, li, base, rvp}, false},
		{"different warmups",
			side{r, li, base, rvp}, side{rWarm, li, base, rvp}, false},
		{"registry rvp vs hint-less drvp_none",
			side{r, li, base, rvp}, side{r, li, base, must(r.dynamic(profile.SupportNone, false)("li"))}, true},
		{"Figure 3 vs Figure 4 no_predict",
			side{r, li, selective, must(core.NewPredictor("none"))}, side{r, li, base, core.NoPredictor{}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ka := c.a.r.cellKey(c.a.p, c.a.pred.(core.Identified), c.a.cfg)
			kb := c.b.r.cellKey(c.b.p, c.b.pred.(core.Identified), c.b.cfg)
			if (ka == kb) != c.same {
				t.Errorf("keys %s and %s: equal=%t, want %t", ka, kb, ka == kb, c.same)
			}
		})
	}
}

// TestCellCacheFigure6ThenTable2: Table 2 re-reports Figure 6's
// predictors, so on a Runner that already drew Figure 6 it simulates
// nothing, and it renders exactly what a fresh Runner's Table 2 does.
// The trace still holds one sim: span per table cell, reused or not.
func TestCellCacheFigure6ThenTable2(t *testing.T) {
	opts := Options{Insts: 30_000, ProfileInsts: 15_000, Parallel: true}
	reg := obs.NewRegistry()
	tr := obs.NewTracer("exp", 1024)
	shared := opts
	shared.Registry = reg
	shared.Tracer = tr
	var done atomic.Int64
	shared.OnRunDone = func(string) { done.Add(1) }
	r := NewRunner(shared)
	if _, err := r.Figure6(); err != nil {
		t.Fatal(err)
	}
	done.Store(0)
	reused := reg.Counter("exp_cells_reused", "").Value()
	cov, acc, err := r.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if n := done.Load(); n != 0 {
		t.Errorf("Table2 after Figure6 simulated %d cells, want 0", n)
	}
	if got, want := reg.Counter("exp_cells_reused", "").Value()-reused, int64(4*len(names())); got != want {
		t.Errorf("exp_cells_reused = %d, want %d", got, want)
	}
	var sims, reusedSpans int
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, "sim:") {
			sims++
			if sp.Attrs["cell"] == "reused" {
				reusedSpans++
			}
		}
	}
	// Figure 6: a baseline and five predictors per workload; Table 2: four.
	if want := (6 + 4) * len(names()); sims != want {
		t.Errorf("%d sim: spans, want one per table cell (%d)", sims, want)
	}
	if got := reg.Counter("exp_cells_reused", "").Value(); int64(reusedSpans) != got {
		t.Errorf("%d sim: spans marked cell=reused, exp_cells_reused = %d", reusedSpans, got)
	}
	fcov, facc, err := NewRunner(opts).Table2()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cov.String()+acc.String(), fcov.String()+facc.String(); got != want {
		t.Errorf("Table2 from reused cells differs from a fresh Runner's:\n--- reused\n%s--- fresh\n%s", got, want)
	}
}

// TestCellCacheSingleFlight: goroutines resolving one cell at once share
// one simulation and all see its result.
func TestCellCacheSingleFlight(t *testing.T) {
	const n = 8
	var done atomic.Int64
	r := NewRunner(Options{Insts: 20_000, OnRunDone: func(string) { done.Add(1) }})
	results := make([]pipeline.Stats, n)
	errs := make([]error, n)
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			results[i], errs[i] = r.run("li", pipeline.BaselineConfig(), core.MustDynamicRVP(core.DefaultCounterConfig()))
		}()
	}
	start.Done()
	wg.Wait()
	for i := range n {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if results[i] != results[0] || results[i].Committed == 0 {
			t.Fatalf("caller %d saw %+v, caller 0 saw %+v", i, results[i], results[0])
		}
	}
	if got := done.Load(); got != 1 {
		t.Errorf("%d concurrent callers of one cell ran %d simulations, want 1", n, got)
	}
}

// TestCellCacheFailedNotCached: a failed simulation leaves no entry
// behind, and a caller waiting on it re-resolves the key and simulates
// itself.
func TestCellCacheFailedNotCached(t *testing.T) {
	r := NewRunner(Options{Insts: 20_000})
	boom := errors.New("boom")
	var sims atomic.Int32
	release := make(chan struct{})
	failing := func() (pipeline.Stats, error) {
		sims.Add(1)
		<-release
		return pipeline.Stats{}, boom
	}
	succeeding := func() (pipeline.Stats, error) {
		sims.Add(1)
		return pipeline.Stats{Cycles: 42}, nil
	}

	ownerErr := make(chan error)
	go func() {
		_, err := r.resolve("k", "li/x", failing)
		ownerErr <- err
	}()
	for sims.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	waiter := make(chan pipeline.Stats)
	go func() {
		st, err := r.resolve("k", "li/x", succeeding)
		if err != nil {
			t.Error(err)
		}
		waiter <- st
	}()
	// Give the waiter time to block on the owner's entry. Correctness does
	// not depend on it: a waiter that arrives after the failure finds no
	// entry and simulates as the owner, with the same outcome.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if err := <-ownerErr; !errors.Is(err, boom) {
		t.Fatalf("owner err = %v, want boom", err)
	}
	if st := <-waiter; st.Cycles != 42 {
		t.Fatalf("waiter got %+v, want its own simulation's result", st)
	}
	if got := sims.Load(); got != 2 {
		t.Fatalf("%d simulations, want 2 (the failed one is not cached)", got)
	}
	if st, err := r.resolve("k", "li/x", failing); err != nil || st.Cycles != 42 {
		t.Fatalf("resolve after success = %+v, %v; want the cached result", st, err)
	}
}

var digestSink string

// BenchmarkProgramDigest measures the per-job cost the cell key adds:
// RunJob builds one Runner per job, so each job hashes its program once.
func BenchmarkProgramDigest(b *testing.B) {
	for _, wl := range names() {
		p, err := workloads.ByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl, func(b *testing.B) {
			for range b.N {
				digestSink = programDigest(p)
			}
		})
	}
}

// TestRegistryCountsSimulatedCellsOnce: with Options.Registry set, each
// simulation publishes its Stats once, so rvpsim_committed_total is the
// sum over the cells actually simulated. A reused cell and a
// journal-replayed cell add nothing.
func TestRegistryCountsSimulatedCellsOnce(t *testing.T) {
	opts := Options{Insts: 30_000, ProfileInsts: 15_000, Parallel: true, StateDir: t.TempDir()}
	sweep := func(figs ...func(*Runner) error) *obs.Registry {
		t.Helper()
		o := opts
		o.Registry = obs.NewRegistry()
		r := NewRunner(o)
		if err := r.EnableResume(); err != nil {
			t.Fatal(err)
		}
		for _, fig := range figs {
			if err := fig(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		return o.Registry
	}
	fig6 := func(r *Runner) error { _, err := r.Figure6(); return err }
	tab2 := func(r *Runner) error { _, _, err := r.Table2(); return err }
	counter := func(reg *obs.Registry, name string) int64 { return reg.Counter(name, "").Value() }

	// Table 2 after Figure 6 reuses every cell it asks for.
	reg := sweep(fig6, tab2)
	if counter(reg, "exp_cells_reused") == 0 {
		t.Fatal("Table2 after Figure6 reused no cell")
	}
	j, err := OpenJournal(JournalPath(opts.StateDir))
	if err != nil {
		t.Fatal(err)
	}
	cells := j.Cells()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, st := range cells {
		want += int64(st.Committed)
	}
	if got := counter(reg, "rvpsim_committed_total"); want == 0 || got != want {
		t.Errorf("rvpsim_committed_total = %d, want %d: the sum over the %d simulated cells", got, want, len(cells))
	}

	// A second sweep over the same state dir replays every cell.
	reg = sweep(fig6)
	if counter(reg, "exp_journal_replayed") == 0 {
		t.Fatal("the second sweep replayed no cell")
	}
	if got := counter(reg, "rvpsim_committed_total"); got != 0 {
		t.Errorf("journal replay published rvpsim_committed_total = %d, want 0", got)
	}
}
