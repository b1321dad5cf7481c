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
package exp

import (
	"context"
	"errors"
	"io/fs"
	"runtime"
	"sync"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/core"
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
	// once per workload and its warmed state is forked copy-on-write
	// into every (predictor, config) cell — valid because the committed
	// stream is architecturally determined, so one functional warmup
	// serves any machine configuration. Microarchitectural state (caches,
	// predictors) still starts cold in each cell. Zero (the default)
	// keeps the historical cold-start methodology.
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
	// for: never shared, journaled or checkpointed.
	Faults map[string]faultinject.Config
	// Registry, when non-nil, receives every simulation run's metrics
	// (the runs attach observers publishing into it; counters aggregate
	// across the whole sweep). Instruments are updated atomically, so
	// parallel workloads are safe.
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
	// replays journaled cells instead of re-simulating them, and
	// half-finished runs resume from their latest checkpoint.
	StateDir string
	// CheckpointEvery is the auto-checkpoint cadence, in committed
	// instructions, for in-flight runs when StateDir is active. Zero
	// disables checkpointing (the journal still works).
	CheckpointEvery uint64
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
	// FS is the filesystem seam all of the runner's durability I/O —
	// the sweep journal and run checkpoints — goes through. Nil means
	// the real filesystem; tests inject vfs.Mem/vfs.Fault to simulate
	// hostile storage.
	FS vfs.FS
	// WALMetrics, when non-nil, receives the journal's wal_* instrument
	// updates (appends, fsync latency, repairs).
	WALMetrics *wal.Metrics
	// OnCheckpoint, when non-nil, is called with a "workload/predictor"
	// label after each periodic checkpoint is durably saved. Same
	// concurrency contract as OnProgress.
	OnCheckpoint func(label string)
}

// DefaultOptions returns a laptop-scale configuration: large enough for
// stable warmed-up statistics, small enough to regenerate every figure in
// minutes.
func DefaultOptions() Options {
	return Options{Insts: 2_000_000, ProfileInsts: 500_000, Threshold: 0.80, Parallel: true}
}

// Runner memoises per-workload programs, profiles and warm states, and
// keeps the cell table: every simulation result by its content key (see
// cellKey), so a cell any driver needs is simulated at most once per
// Runner.
type Runner struct {
	opts Options

	mu        sync.Mutex
	cells     map[string]*cell
	digests   map[*program.Program]string
	programs  map[string]*program.Program
	profiles  map[string]*profile.Profile
	injectors map[string]*faultinject.Injector
	warmups   map[string]*pipeline.WarmState
	simPools  map[pipeline.Config]*sync.Pool
	journal   *Journal
	warnings  []string
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
		warmups:   map[string]*pipeline.WarmState{},
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
// need: a pooled Sim's observer/fault/progress/checkpoint hooks are
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
	if sim == nil {
		return
	}
	r.mu.Lock()
	pool := r.simPools[cfg]
	r.mu.Unlock()
	if pool != nil {
		pool.Put(sim)
	}
}

// fsys is the runner's filesystem seam (the real filesystem unless
// Options.FS injects another).
func (r *Runner) fsys() vfs.FS {
	if r.opts.FS != nil {
		return r.opts.FS
	}
	return vfs.OS
}

// removeQuiet deletes a redundant or rejected checkpoint; failure is
// harmless (the file is re-validated or overwritten on next use).
func removeQuiet(fsys vfs.FS, path string) { _ = fsys.Remove(path) }

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
	j, err := OpenJournalFS(JournalPath(r.opts.StateDir), r.opts.FS, r.opts.WALMetrics)
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

// warmState returns the memoised warm state for a workload, executing
// the functional warmup on first use. One warmup serves every cell
// (predictor × config) of that workload: the fast-forward is
// architectural only, so its result is valid for all of them. Nil when
// warmup is disabled.
func (r *Runner) warmState(p *program.Program) (*pipeline.WarmState, error) {
	if r.opts.WarmupInsts == 0 {
		return nil, nil
	}
	r.mu.Lock()
	if w, ok := r.warmups[p.Name]; ok {
		r.mu.Unlock()
		return w, nil
	}
	r.mu.Unlock()
	wsp := r.opts.Tracer.Start(r.opts.TraceParent, "warmup:"+p.Name)
	w, err := pipeline.Warmup(p, r.opts.WarmupInsts)
	wsp.EndErr(err)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if prior, ok := r.warmups[p.Name]; ok {
		// Lost a race with a concurrent warmup of the same workload; keep
		// the first so every cell forks the identical state.
		r.mu.Unlock()
		return prior, nil
	}
	r.warmups[p.Name] = w
	r.mu.Unlock()
	r.count("exp_warmup_runs", "functional warmups executed (once per workload)")
	return w, nil
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
// a cell key, the run is periodically checkpointed, resumed from a prior
// checkpoint when one exists, and journaled (fsync'd) on completion
// before its result is returned to any aggregation.
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
	// The cell's simulator comes from the per-config pool and goes back
	// when the cell finishes (any exit path). Every hook is set
	// unconditionally — a pooled Sim carries whatever the previous cell
	// armed, so "not configured" must be written as explicitly as
	// "configured". A failed checkpoint resume reuses the same Sim for
	// the from-scratch rerun.
	var sim *pipeline.Sim
	defer func() { r.putSim(cfg, sim) }()
	newSim := func() (*pipeline.Sim, error) {
		if sim == nil {
			s, err := r.simFor(cfg)
			if err != nil {
				return nil, err
			}
			sim = s
		}
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
		sim.SetCheckpoint(0, nil)
		return sim, nil
	}

	// Checkpointing applies only to keyed cells, which are unperturbed
	// runs: a fault injector's effects are not captured in a snapshot, so
	// resuming an injected run would not replay deterministically.
	ckptable, isCkptable := pred.(core.Checkpointable)
	canCkpt := journal != nil && r.opts.CheckpointEvery > 0 && isCkptable
	var ckptPath string
	var pristine core.PredictorState
	if canCkpt {
		ckptPath = ckptFile(r.opts.StateDir, key)
		pristine = ckptable.SnapshotState()
	}
	arm := func(sim *pipeline.Sim) {
		if !canCkpt {
			return
		}
		sim.SetCheckpoint(r.opts.CheckpointEvery, func(snap *pipeline.Snapshot) error {
			if err := checkpoint.SaveFS(r.fsys(), ckptPath, snap); err != nil {
				return err
			}
			r.count("exp_ckpt_saves", "periodic run checkpoints written")
			if r.opts.OnCheckpoint != nil {
				r.opts.OnCheckpoint(label)
			}
			return nil
		})
	}

	var st pipeline.Stats
	var err error
	sp := r.opts.Tracer.Start(r.opts.TraceParent, "sim:"+label)
	sp.SetAttr("workload", p.Name)
	sp.SetAttr("predictor", pred.Name())
	defer func() { sp.EndErr(err) }()
	ran := false
	if canCkpt {
		snap, lerr := checkpoint.LoadFS(r.fsys(), ckptPath)
		switch {
		case lerr == nil:
			if sim, err = newSim(); err != nil {
				return pipeline.Stats{}, err
			}
			arm(sim)
			// The key proves the checkpoint's predictor behaves as this
			// one; it may have been saved under another report name.
			snap.PredictorName = pred.Name()
			st, err = sim.ResumeContext(ctx, snap, p, pred, r.opts.Insts)
			if err != nil && errors.Is(err, simerr.ErrCorrupt) {
				// The checkpoint does not belong to this cell as currently
				// configured (changed budget, predictor sizing, schema).
				// Discard it, restore the predictor's pristine state, and
				// run the cell from scratch.
				r.warn("checkpoint for %s rejected (%v); re-running cell from scratch", label, lerr2str(err))
				r.count("exp_ckpt_corrupt", "checkpoints discarded as damaged or mismatched")
				removeQuiet(r.fsys(), ckptPath)
				_ = ckptable.RestoreState(pristine)
			} else {
				ran = true
				r.count("exp_ckpt_restores", "runs resumed from a checkpoint")
			}
		case errors.Is(lerr, fs.ErrNotExist):
			// Nothing to resume.
		default:
			r.warn("checkpoint for %s unreadable (%v); re-running cell from scratch", label, lerr2str(lerr))
			r.count("exp_ckpt_corrupt", "checkpoints discarded as damaged or mismatched")
			removeQuiet(r.fsys(), ckptPath)
		}
	}
	if !ran {
		warm, werr := r.warmState(p)
		if werr != nil {
			err = werr
			return pipeline.Stats{}, err
		}
		if sim, err = newSim(); err != nil {
			return pipeline.Stats{}, err
		}
		arm(sim)
		if warm != nil {
			r.count("exp_warmup_forks", "measured runs started from a forked warm state")
			st, err = sim.RunWarmedContext(ctx, warm, p, pred, r.opts.Insts)
		} else {
			st, err = sim.RunContext(ctx, p, pred, r.opts.Insts)
		}
	}
	if err != nil {
		// Checkpoint-then-exit: a cancelled or timed-out run leaves its
		// latest coherent state behind so a -resume rerun picks the cell
		// up mid-stream instead of starting over.
		if canCkpt && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			if snap, serr := sim.Snapshot(); serr == nil {
				if werr := checkpoint.SaveFS(r.fsys(), ckptPath, snap); werr == nil {
					r.count("exp_ckpt_saves", "periodic run checkpoints written")
				}
			}
		}
		return st, err
	}
	// Write-ahead: the finished cell is durable in the journal before the
	// caller can aggregate it; its checkpoint is then redundant.
	if journal != nil {
		if err = journal.Record(key, st); err != nil {
			return st, err
		}
		r.count("exp_journal_appends", "sweep cells appended to the journal")
	}
	if canCkpt {
		removeQuiet(r.fsys(), ckptPath)
	}
	if r.opts.OnRunDone != nil {
		r.opts.OnRunDone(label)
	}
	return st, nil
}

// lerr2str compacts a load/validation error for a one-line footnote.
func lerr2str(err error) string {
	var se *simerr.SimError
	if errors.As(err, &se) {
		return se.Err.Error()
	}
	return err.Error()
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
// recovery warnings (truncated journal tail, discarded checkpoints)
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
