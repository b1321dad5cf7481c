// Package exp contains one driver per table and figure in the paper's
// evaluation section. Each driver runs the relevant workloads under the
// relevant predictor/machine configurations and returns a stats.Table
// whose rows mirror the paper's series, so the experiments binary and the
// benchmark harness can regenerate every result.
//
// Methodology notes (deviations from the paper are documented in
// DESIGN.md): runs are bounded by a committed-instruction budget rather
// than 300M instructions; profiling uses the same program with a separate
// (smaller) budget, standing in for the paper's train-vs-ref input split,
// which the paper itself reports to be stable across inputs.
//
// Behaviour is pinned to the last digit by one text file,
// testdata/fingerprint.txt, which TestFingerprint recomputes: a Stats
// line for every distinct figure cell at 100k instructions and for
// machines the figures do not run, each workload's profile and
// re-allocation, and the partial tables under four fault plans. A
// mismatch lists every moved field as old → new with the IPC and
// speedup change. After a deliberate model change, regenerate it with
//
//	go test ./internal/exp -run TestFingerprint -update
//
// and, until the benchmark reads this file, the benchmark's goldens
// with rvpbench -update-golden.
package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"

	"rvpsim/internal/core"
	"rvpsim/internal/emu"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/simerr"
	"rvpsim/internal/stats"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
	"rvpsim/internal/workloads"
)

// Options scales the experiments.
type Options struct {
	// Insts is the committed-instruction budget per measurement run.
	Insts uint64
	// WarmupInsts, when positive, fast-forwards each workload through
	// this many committed instructions on the architectural emulator
	// before the measured (timed) phase of every run. The warmup is paid
	// once per program: its architectural state is snapshotted and every
	// (predictor, config) cell runs from its own restore of that snapshot
	// — valid because the committed stream is architecturally
	// determined, so one functional warmup serves any machine
	// configuration. Microarchitectural state (caches, predictors) still
	// starts cold in each cell. Zero (the default) keeps the historical
	// cold-start methodology.
	WarmupInsts uint64
	// ProfileInsts is the budget for the profiling pass.
	ProfileInsts uint64
	// Threshold is the profiler's predictability threshold (paper: 0.80,
	// except Figure 4 which uses 0.90 internally).
	Threshold float64
	// Parallel runs workloads on multiple goroutines when true.
	Parallel bool
	// MaxWorkers bounds the worker pool when Parallel is set (default
	// GOMAXPROCS).
	MaxWorkers int
	// Context, when non-nil, cancels in-flight sweeps: runs stop within
	// one commit batch of the context ending.
	Context context.Context
	// WatchdogCycles arms the pipeline's forward-progress watchdog for
	// every run (0 leaves it disabled).
	WatchdogCycles int
	// Faults maps workload name to a fault-injection configuration; the
	// injector for a workload is created once and persists across that
	// workload's runs and retries, so sticky faults stay stuck. Such a
	// workload's cells are therefore simulated every time they are asked
	// for: never shared or journaled.
	Faults map[string]faultinject.Config
	// Registry, when non-nil, receives every simulation run's metrics
	// (the runs attach observers publishing into it; counters aggregate
	// across the whole sweep) and the journal's wal_* instruments.
	// Instruments are updated atomically, so parallel workloads are
	// safe.
	Registry *obs.Registry
	// OnRunDone, when non-nil, is called once per distinct cell with a
	// short "workload/predictor" label: when the cell is simulated or
	// replayed from the journal, not when a later driver reuses it from
	// the runner's cell table. It must be safe for concurrent calls; the
	// experiments binary points it at a progress heartbeat.
	OnRunDone func(label string)
	// StateDir, when set (and EnableResume is called), makes sweeps
	// crash-safe: every finished cell is fsync'd to a write-ahead
	// journal under this directory before table aggregation, a rerun
	// replays journaled cells instead of re-simulating them. A cell the
	// crash interrupted re-simulates from its start.
	StateDir string
	// Tracer, when non-nil, collects a span per profiling pass and per
	// simulation run so a job's wall-clock time decomposes into its
	// pipeline stages. Spans parent under TraceParent.
	Tracer *obs.Tracer
	// TraceParent is the span context new spans parent under (zero
	// starts fresh traces).
	TraceParent obs.SpanContext
	// OnProgress, when non-nil, is a live heartbeat: it is called from
	// inside running simulations with a "workload/predictor" label, the
	// run's committed-instruction count and current cycle, every
	// ProgressEvery committed instructions. It must be safe for
	// concurrent calls (parallel workloads run simultaneously) and must
	// not block: it executes on simulation goroutines.
	OnProgress func(label string, committed uint64, cycles int64)
	// ProgressEvery is the OnProgress cadence in committed instructions
	// (default 100_000 when OnProgress is set).
	ProgressEvery uint64
	// FS is the filesystem seam the runner's durability I/O (the sweep
	// journal) goes through. Nil means the real filesystem; tests inject
	// vfs.Mem/vfs.Fault to simulate hostile storage.
	FS vfs.FS
}

// DefaultOptions returns a laptop-scale configuration: large enough for
// stable warmed-up statistics, small enough to regenerate every figure in
// minutes.
func DefaultOptions() Options {
	return Options{Insts: 2_000_000, ProfileInsts: 500_000, Threshold: 0.80, Parallel: true}
}

// Runner memoises per-workload programs and profiles and per-program
// warm snapshots, and keeps the cell table: every simulation result by
// its content key (see cellKey), so a cell any driver needs is simulated
// at most once per Runner.
type Runner struct {
	opts Options

	mu        sync.Mutex
	cells     map[string]*cell
	digests   map[*program.Program]string
	programs  map[string]*program.Program
	profiles  map[string]*profile.Profile
	injectors map[string]*faultinject.Injector
	warmups   map[string]emu.Snapshot // by program digest
	simPools  map[pipeline.Config]*sync.Pool
	journal   *Journal
	warnings  []string
	// gridDone, when set, sees every grid a driver finishes and the
	// machine its baseline ran on (nil without one); the fingerprint
	// test names each figure cell through it.
	gridDone func(g *grid, base *pipeline.Config)
}

// NewRunner builds a Runner.
func NewRunner(opts Options) *Runner {
	if opts.Insts == 0 {
		opts.Insts = DefaultOptions().Insts
	}
	if opts.ProfileInsts == 0 {
		opts.ProfileInsts = opts.Insts / 4
	}
	if opts.Threshold == 0 {
		opts.Threshold = 0.80
	}
	if opts.OnProgress != nil && opts.ProgressEvery == 0 {
		opts.ProgressEvery = 100_000
	}
	return &Runner{
		opts:      opts,
		cells:     map[string]*cell{},
		digests:   map[*program.Program]string{},
		programs:  map[string]*program.Program{},
		profiles:  map[string]*profile.Profile{},
		injectors: map[string]*faultinject.Injector{},
		warmups:   map[string]emu.Snapshot{},
		simPools:  map[pipeline.Config]*sync.Pool{},
	}
}

// simFor takes a simulator for cfg from the per-configuration pool,
// constructing one only when the pool is empty. A pooled Sim retains its
// run buffers (capacity rings, decode tables, the pendingPred pool —
// several MB), so a worker draining a sweep recycles them run after run
// instead of hammering the shared allocator; reuse is proven
// byte-identical to a fresh Sim by pipeline's TestSimReuseDeterminism.
// Callers must return the Sim with putSim and re-arm every hook they
// need: a pooled Sim's observer/fault/progress hooks are
// whatever the previous cell left behind.
func (r *Runner) simFor(cfg pipeline.Config) (*pipeline.Sim, error) {
	r.mu.Lock()
	pool, ok := r.simPools[cfg]
	if !ok {
		pool = &sync.Pool{}
		r.simPools[cfg] = pool
	}
	r.mu.Unlock()
	if sim, ok := pool.Get().(*pipeline.Sim); ok {
		return sim, nil
	}
	return pipeline.New(cfg)
}

// putSim returns a simulator taken with simFor to its pool.
func (r *Runner) putSim(cfg pipeline.Config, sim *pipeline.Sim) {
	r.mu.Lock()
	pool := r.simPools[cfg]
	r.mu.Unlock()
	if pool != nil {
		pool.Put(sim)
	}
}

// injector returns the memoised fault injector for a workload, nil when
// none is configured. One injector per workload persists across every
// run and retry of that workload, so sticky faults stay stuck.
func (r *Runner) injector(name string) *faultinject.Injector {
	fc, ok := r.opts.Faults[name]
	if !ok || !fc.Enabled() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if inj, ok := r.injectors[name]; ok {
		return inj
	}
	inj := faultinject.New(fc)
	r.injectors[name] = inj
	return inj
}

// Program returns the (memoised) program for a workload.
func (r *Runner) Program(name string) (*program.Program, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.programs[name]; ok {
		return p, nil
	}
	p, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	r.programs[name] = p
	return p, nil
}

// Profile returns the (memoised) register-reuse profile for a workload.
func (r *Runner) Profile(name string) (*profile.Profile, error) {
	p, err := r.Program(name)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if pr, ok := r.profiles[name]; ok {
		r.mu.Unlock()
		return pr, nil
	}
	r.mu.Unlock()
	psp := r.opts.Tracer.Start(r.opts.TraceParent, "profile:"+name)
	pr, err := profile.Run(p, profile.Options{MaxInsts: r.opts.ProfileInsts})
	psp.EndErr(err)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.profiles[name] = pr
	r.mu.Unlock()
	return pr, nil
}

// EnableResume opens the write-ahead journal inside Options.StateDir,
// replaying completed cells from any previous (crashed or interrupted)
// sweep. A damaged journal tail is truncated with a footnoted warning,
// never fatal. No-op when StateDir is unset.
func (r *Runner) EnableResume() error {
	if r.opts.StateDir == "" {
		return nil
	}
	var met *wal.Metrics
	if r.opts.Registry != nil {
		met = wal.NewMetrics(r.opts.Registry)
	}
	j, err := OpenJournalFS(JournalPath(r.opts.StateDir), r.opts.FS, met)
	if err != nil {
		return err
	}
	if j.Truncated > 0 {
		r.warn("journal: dropped %d damaged tail record(s); their cells will be re-simulated", j.Truncated)
		r.count("exp_journal_truncated", "journal records dropped as torn or corrupt")
	}
	// The journal is the cell table's persisted layer: its cells seed the
	// table, so a resumed sweep replays them instead of simulating.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
	for key, st := range j.Cells() {
		if _, ok := r.cells[key]; !ok {
			r.cells[key] = &cell{done: closedDone, st: st, journaled: true}
		}
	}
	return nil
}

// Journaled reports how many completed cells the journal holds (0
// without EnableResume).
func (r *Runner) Journaled() int {
	r.mu.Lock()
	j := r.journal
	r.mu.Unlock()
	if j == nil {
		return 0
	}
	return j.Len()
}

// Close releases the journal, if open.
func (r *Runner) Close() error {
	r.mu.Lock()
	j := r.journal
	r.journal = nil
	r.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// count bumps a sweep-level observability counter when a registry is
// attached.
func (r *Runner) count(name, help string) {
	if r.opts.Registry != nil {
		r.opts.Registry.Counter(name, help).Inc()
	}
}

// startState returns the architectural state a cell of p starts from:
// the program's entry when warmup is off, else a fresh restore of p's
// warm snapshot. The snapshot is taken on first use, after running p
// WarmupInsts instructions on the emulator, and memoised by p's content
// digest, so one warmup serves every predictor and config of a program
// and a re-allocated program warms on itself, not on its original.
// Concurrent first uses may each warm up; their snapshots are identical.
func (r *Runner) startState(p *program.Program) (*emu.State, error) {
	if r.opts.WarmupInsts == 0 {
		st, err := emu.New(p)
		if err != nil {
			return nil, simerr.New("emu", err)
		}
		return st, nil
	}
	d := r.programDigest(p)
	r.mu.Lock()
	snap, ok := r.warmups[d]
	r.mu.Unlock()
	if !ok {
		wsp := r.opts.Tracer.Start(r.opts.TraceParent, "warmup:"+p.Name)
		st, err := emu.New(p)
		if err == nil {
			st.Run(r.opts.WarmupInsts)
			err = st.Err()
		}
		wsp.EndErr(err)
		if err != nil {
			return nil, simerr.New("warmup", err)
		}
		snap = st.Snapshot()
		r.mu.Lock()
		r.warmups[d] = snap
		r.mu.Unlock()
		r.count("exp_warmup_runs", "functional warmups executed (once per program)")
	}
	st, err := emu.Restore(p, snap)
	if err != nil {
		return nil, simerr.New("warmup", err)
	}
	r.count("exp_warmup_forks", "measured runs started from a restored warm snapshot")
	return st, nil
}

// run resolves the cell for one workload under one predictor and
// machine config.
func (r *Runner) run(name string, cfg pipeline.Config, pred core.Predictor) (pipeline.Stats, error) {
	p, err := r.Program(name)
	if err != nil {
		return pipeline.Stats{}, err
	}
	return r.runOn(p, cfg, pred)
}

// runOn resolves the cell for an explicit program (used for re-allocated
// programs) through the cell table: a cell already simulated by any
// driver, or journaled by an earlier sweep, is served from there, and
// concurrent callers of one cell share a single run. Two kinds of cell
// bypass the table and simulate every time: those whose workload has a
// fault injector (it is sticky across the workload's runs, so the result
// is not a function of the key) and those whose predictor has no
// core.Identified identity.
func (r *Runner) runOn(p *program.Program, cfg pipeline.Config, pred core.Predictor) (pipeline.Stats, error) {
	if cfg.WatchdogCycles == 0 {
		cfg.WatchdogCycles = r.opts.WatchdogCycles
	}
	label := p.Name + "/" + pred.Name()
	inj := r.injector(p.Name)
	id, ok := pred.(core.Identified)
	if !ok || inj != nil {
		return r.simulate(p, cfg, pred, inj, label, "")
	}
	key := r.cellKey(p, id, cfg)
	return r.resolve(key, label, func() (pipeline.Stats, error) {
		return r.simulate(p, cfg, pred, nil, label, key)
	})
}

// simulate runs one cell. The runner's context, watchdog, fault
// injection and progress options all apply here. With a journal open and
// a cell key, the finished cell is journaled (fsync'd) before its result
// is returned to any aggregation; an interrupted cell leaves nothing
// behind and re-simulates from its start on resume.
func (r *Runner) simulate(p *program.Program, cfg pipeline.Config, pred core.Predictor, inj *faultinject.Injector, label, key string) (pipeline.Stats, error) {
	var journal *Journal
	if key != "" {
		r.mu.Lock()
		journal = r.journal
		r.mu.Unlock()
	}
	ctx := r.opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	var st pipeline.Stats
	var err error
	sp := r.opts.Tracer.Start(r.opts.TraceParent, "sim:"+label)
	sp.SetAttr("workload", p.Name)
	sp.SetAttr("predictor", pred.Name())
	defer func() { sp.EndErr(err) }()
	start, err := r.startState(p)
	if err != nil {
		return pipeline.Stats{}, err
	}
	// The cell's simulator comes from the per-config pool and goes back
	// when the cell finishes. Every hook is set unconditionally: a pooled
	// Sim carries whatever the previous cell armed, so "not configured"
	// must be written as explicitly as "configured".
	sim, err := r.simFor(cfg)
	if err != nil {
		return pipeline.Stats{}, err
	}
	defer r.putSim(cfg, sim)
	if r.opts.Registry != nil {
		sim.SetObserver(obs.NewObserverWith(r.opts.Registry))
	} else {
		sim.SetObserver(nil)
	}
	if inj != nil {
		sim.SetFaults(inj)
	} else {
		// A plain nil, not the typed-nil *Injector, so the pipeline's
		// `faults != nil` fast path stays off.
		sim.SetFaults(nil)
	}
	if r.opts.OnProgress != nil && r.opts.ProgressEvery > 0 {
		sim.SetProgress(r.opts.ProgressEvery, func(committed uint64, cycles int64) {
			r.opts.OnProgress(label, committed, cycles)
		})
	} else {
		sim.SetProgress(0, nil)
	}
	if st, err = sim.RunFromContext(ctx, start, pred, r.opts.Insts); err != nil {
		return st, err
	}
	// Write-ahead: the finished cell is durable in the journal before the
	// caller can aggregate it.
	if journal != nil {
		if err = journal.Record(key, st); err != nil {
			return st, err
		}
		r.count("exp_journal_appends", "sweep cells appended to the journal")
	}
	if r.opts.OnRunDone != nil {
		r.opts.OnRunDone(label)
	}
	return st, nil
}

// transientRetries is how many times a run or workload whose failure
// the simulator marks transient (simerr.IsTransient) is retried.
const transientRetries = 1

// forEach runs f for every workload name on a bounded worker pool. Each
// invocation is isolated: panics are recovered into errors, failures the
// simulator marks transient get retried (transientRetries), and every
// failure is attributed to its workload. The map carries one entry per
// failed workload so drivers can emit partial tables; the returned error
// joins all failures (nil when every workload succeeded).
func (r *Runner) forEach(names []string, f func(name string) error) (map[string]error, error) {
	one := func(name string) (err error) {
		for attempt := 0; ; attempt++ {
			err = func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = simerr.Newf("exp", "panic: %v", p)
					}
				}()
				return f(name)
			}()
			if err == nil || attempt >= transientRetries || !simerr.IsTransient(err) {
				break
			}
		}
		return simerr.WithWorkload(name, err)
	}

	errs := make([]error, len(names))
	if !r.opts.Parallel {
		for i, n := range names {
			errs[i] = one(n)
		}
	} else {
		workers := r.opts.MaxWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(names) {
			workers = len(names)
		}
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i, n := range names {
			wg.Add(1)
			go func(i int, n string) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = one(n)
			}(i, n)
		}
		wg.Wait()
	}
	fails := make(map[string]error, len(names))
	for i, n := range names {
		if errs[i] != nil {
			fails[n] = errs[i]
		}
	}
	return fails, errors.Join(errs...)
}

// failReason renders the failure attached to a workload for MarkFailed
// ("not measured" when the cell is missing for another reason, e.g. an
// earlier predictor in the same workload callback failed first).
func failReason(fails map[string]error, name string) string {
	if err := fails[name]; err != nil {
		return err.Error()
	}
	return "not measured"
}

// noteFailures appends one footnote per failed workload, in input order
// so table output stays deterministic, then drains any non-fatal
// recovery warnings (a truncated journal tail)
// accumulated since the last table into footnotes as well.
func (r *Runner) noteFailures(t *stats.Table, names []string, fails map[string]error) {
	for _, n := range names {
		if err := fails[n]; err != nil {
			t.AddNote("failed: " + err.Error())
		}
	}
	for _, w := range r.drainWarnings() {
		t.AddNote("warning: " + w)
	}
}

// static is a series predictor: a StaticRVP built from the workload's
// profile at the given threshold with the given support level.
func (r *Runner) static(level profile.Support, threshold float64) func(string) (core.Predictor, error) {
	return func(name string) (core.Predictor, error) {
		pr, err := r.Profile(name)
		if err != nil {
			return nil, err
		}
		lists := pr.Lists(threshold, true, 0)
		return core.NewStaticRVP("srvp_"+level.String(), lists.Marked(level), lists.Hints(level)), nil
	}
}

// dynamic is a series predictor: a DynamicRVP with hints at the given
// support level. loadsOnly restricts candidate instructions to loads.
func (r *Runner) dynamic(level profile.Support, loadsOnly bool) func(string) (core.Predictor, error) {
	return func(name string) (core.Predictor, error) {
		opts := []core.DynamicRVPOption{core.WithName("drvp_" + level.String())}
		if loadsOnly {
			opts = append(opts, core.LoadsOnly())
		}
		if level != profile.SupportNone {
			pr, err := r.Profile(name)
			if err != nil {
				return nil, err
			}
			lists := pr.Lists(r.opts.Threshold, loadsOnly, 0)
			opts = append(opts, core.WithHints(lists.Hints(level)))
		}
		return core.NewDynamicRVP(core.DefaultCounterConfig(), opts...)
	}
}

// allNames returns the nine workload names.
func allNames() []string { return workloads.Names() }
