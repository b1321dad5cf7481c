// Package rvpsim is a from-scratch reproduction of Tullsen & Seng,
// "Storageless Value Prediction Using Prior Register Values" (ISCA 1999):
// register value prediction (RVP) evaluated on an execution-driven
// out-of-order processor simulator, together with the paper's baselines
// (last-value prediction, the Gabbay & Mendelson register predictor),
// its register-reuse profiler, and its Section 7.3 register re-allocator.
//
// The package is a facade over the internal subsystems. A minimal session:
//
//	ctx := context.Background()
//	prog, _ := rvpsim.Workload("hydro2d")
//	cfg := rvpsim.BaselineConfig()
//	opts := rvpsim.RunOptions{MaxInsts: 1_000_000}
//	none, _ := rvpsim.NewPredictor("none")
//	rvp, _ := rvpsim.NewPredictor("rvp")
//	b, _ := rvpsim.Run(ctx, prog, cfg, none, opts)
//	r, _ := rvpsim.Run(ctx, prog, cfg, rvp, opts)
//	fmt.Printf("speedup %.3f\n", float64(b.Cycles)/float64(r.Cycles))
//
// Custom programs are written in the simulator's assembly dialect (see
// package internal/asm for the syntax) and assembled with Assemble. Every
// table and figure from the paper's evaluation section is regenerated by
// the Experiments type (or the cmd/experiments binary).
package rvpsim

import (
	"context"
	"io"

	"rvpsim/internal/asm"
	"rvpsim/internal/core"
	"rvpsim/internal/exp"
	"rvpsim/internal/lockstep"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/profile"
	"rvpsim/internal/program"
	"rvpsim/internal/regalloc"
	"rvpsim/internal/simerr"
	"rvpsim/internal/stats"
	"rvpsim/internal/workloads"
)

// Re-exported machine and result types.
type (
	// Config describes the simulated machine (Table 1 by default).
	Config = pipeline.Config
	// Recovery selects the value-misprediction recovery scheme.
	Recovery = pipeline.Recovery
	// Stats aggregates one simulation run.
	Stats = pipeline.Stats
	// Predictor is the value-prediction interface the pipeline drives.
	Predictor = core.Predictor
	// CounterConfig sizes a resetting-confidence-counter table.
	CounterConfig = core.CounterConfig
	// LVPConfig sizes the last-value-prediction baseline.
	LVPConfig = core.LVPConfig
	// ReuseHints carries profile-derived compiler re-allocation knowledge.
	ReuseHints = core.ReuseHints
	// Support is a compiler-assistance level (same/dead/live/dead_lv/live_lv).
	Support = profile.Support
	// Table is a rendered result table (rows = series, columns = workloads).
	Table = stats.Table
)

// Recovery schemes (Section 4.3).
const (
	RecoverRefetch   = pipeline.RecoverRefetch
	RecoverReissue   = pipeline.RecoverReissue
	RecoverSelective = pipeline.RecoverSelective
)

// Compiler support levels (Section 5).
const (
	SupportNone   = profile.SupportNone
	SupportDead   = profile.SupportDead
	SupportLive   = profile.SupportLive
	SupportDeadLV = profile.SupportDeadLV
	SupportLiveLV = profile.SupportLiveLV
)

// BaselineConfig returns the paper's Table 1 8-issue machine.
func BaselineConfig() Config { return pipeline.BaselineConfig() }

// AggressiveConfig returns the Section 7.4 16-issue machine.
func AggressiveConfig() Config { return pipeline.AggressiveConfig() }

// DefaultCounterConfig returns the paper's 1K-entry untagged 3-bit
// resetting counter table with threshold 7.
func DefaultCounterConfig() CounterConfig { return core.DefaultCounterConfig() }

// DefaultLVPConfig returns the paper's 1K-entry tagged last-value table.
func DefaultLVPConfig() LVPConfig { return core.DefaultLVPConfig() }

// Program is an assembled, runnable program.
type Program struct {
	p *program.Program
}

// Name returns the program's name.
func (p *Program) Name() string { return p.p.Name }

// Len returns the static instruction count.
func (p *Program) Len() int { return len(p.p.Insts) }

// Workloads lists the nine SPEC95-like benchmark names in the paper's
// presentation order.
func Workloads() []string { return workloads.Names() }

// Workload builds the named benchmark.
func Workload(name string) (*Program, error) {
	p, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// Assemble assembles a program from source text in the simulator's
// assembly dialect.
func Assemble(name, src string) (*Program, error) {
	p, err := asm.Assemble(name, src, asm.Options{})
	if err != nil {
		return nil, err
	}
	return &Program{p: p}, nil
}

// SimError is the simulator's structured error: the failing subsystem
// plus whatever run coordinates (workload, PC, cycle) were known at the
// failure site. Every error the library path returns either is one or
// wraps one; match causes with errors.Is against the Err* sentinels.
type SimError = simerr.SimError

// Error sentinels, matched with errors.Is through any SimError wrapping.
var (
	// ErrNoProgress reports a forward-progress watchdog abort: no
	// instruction committed for Config.WatchdogCycles simulated cycles.
	ErrNoProgress = simerr.ErrNoProgress
	// ErrConfig reports an invalid configuration.
	ErrConfig = simerr.ErrConfig
	// ErrInjected reports a deliberately injected fault (robustness
	// testing; see internal/faultinject).
	ErrInjected = simerr.ErrInjected
	// ErrCorrupt reports damaged durable state: a torn or bit-flipped
	// journal or job-store record.
	ErrCorrupt = simerr.ErrCorrupt
	// ErrDivergence reports that the timing pipeline and the reference
	// emulator disagreed during a lockstep validation run.
	ErrDivergence = simerr.ErrDivergence
)

// TraceRecord is one committed instruction in the run's commit stream:
// pipeline event cycles, the value-prediction outcome, and the
// architectural effect (PC, destination register and value).
type TraceRecord = pipeline.TraceRecord

// Observability re-exports (see internal/obs and internal/pipeline).
type (
	// Registry is the named-instrument metrics registry a run publishes
	// its statistics and memory, branch and value-predictor counters
	// into, once, when it ends.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// RunManifest is the machine-readable record of an experiment run.
	RunManifest = obs.Manifest
	// ChromeTrace writes a commit stream as a Chrome trace_event JSON
	// array (chrome://tracing, Perfetto); its Trace method is a tracer.
	ChromeTrace = pipeline.ChromeTrace
	// JSONLTrace writes a commit stream as JSON Lines; its Trace method
	// is a tracer.
	JSONLTrace = pipeline.JSONLTrace
)

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewChromeTrace returns a Chrome trace_event writer on w. Close it after
// the run to terminate the array and flush.
func NewChromeTrace(w io.Writer) *ChromeTrace { return pipeline.NewChromeTrace(w) }

// NewJSONLTrace returns a JSON Lines commit-stream writer on w. Close it
// after the run to flush.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return pipeline.NewJSONLTrace(w) }

// RunOptions carries a run's optional inputs. The zero value runs a
// simulation to HALT with no tracing or metrics.
type RunOptions struct {
	// MaxInsts bounds the run to this many committed instructions
	// (0 = run to HALT).
	MaxInsts uint64
	// Trace, when non-nil, receives every committed instruction in
	// commit order, on the simulating goroutine.
	Trace func(TraceRecord)
	// Metrics, when non-nil, receives the run's metrics. A registry may
	// be shared by several runs; counters aggregate across them, and a
	// canceled run's metrics cover its committed prefix.
	Metrics *Registry
}

// Run simulates prog on the configured machine under the given value
// predictor. ctx is honored at commit-batch granularity (every 1024
// committed instructions): a canceled run stops within one batch and
// returns the context's error wrapped in a SimError, together with
// coherent partial Stats for the work completed. Arming
// cfg.WatchdogCycles additionally bounds the simulated-cycle gap between
// commits, converting a hung run into a structured ErrNoProgress failure:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
//	defer cancel()
//	st, err := rvpsim.Run(ctx, prog, cfg, pred, rvpsim.RunOptions{})
func Run(ctx context.Context, prog *Program, cfg Config, pred Predictor, opts RunOptions) (Stats, error) {
	sim, err := pipeline.New(cfg)
	if err != nil {
		return Stats{}, err
	}
	sim.SetTracer(opts.Trace)
	if opts.Metrics != nil {
		sim.SetObserver(obs.NewObserverWith(opts.Metrics))
	}
	return sim.RunContext(ctx, prog.p, pred, opts.MaxInsts)
}

// Disassemble renders the program as assembler-like text.
func (p *Program) Disassemble() string { return asm.Disassemble(p.p) }

// InstString disassembles one static instruction (for reports).
func (p *Program) InstString(idx int) string {
	if idx < 0 || idx >= len(p.p.Insts) {
		return "<out of range>"
	}
	return asm.DisassembleInst(p.p.Insts[idx], nil)
}

// Predictors lists the built-in predictors' names, the vocabulary of
// NewPredictor, the rvpsim command's -p flag and the job API: none, rvp,
// rvp_loads, lvp (loads only), lvp_all, gabbay (the Gabbay & Mendelson
// register predictor), stride and context (order-2 finite context).
func Predictors() []string { return core.PredictorNames() }

// NewPredictor builds a fresh built-in predictor by name (see
// Predictors). Every predictor reports its hardware cost through its
// StorageBits method. Unknown names are errors wrapping ErrConfig.
func NewPredictor(name string) (Predictor, error) { return core.NewPredictor(name) }

// MustPredictor is NewPredictor for names known to be valid, panicking
// on an unknown one.
func MustPredictor(name string) Predictor {
	p, err := core.NewPredictor(name)
	if err != nil {
		panic(err)
	}
	return p
}

// NewDynamicRVPWith returns dynamic RVP with a custom counter
// configuration (for threshold / table-size / tagging ablations). Invalid
// configurations are reported as errors wrapping ErrConfig.
func NewDynamicRVPWith(cfg CounterConfig) (Predictor, error) { return core.NewDynamicRVP(cfg) }

// NewLVPWith returns the LVP baseline with a custom configuration.
// Invalid configurations are reported as errors wrapping ErrConfig.
func NewLVPWith(cfg LVPConfig) (Predictor, error) { return core.NewLVP(cfg, "lvp") }

// DynamicRVPWithHints returns dynamic RVP with profile-derived hints.
func DynamicRVPWithHints(hints ReuseHints, loadsOnly bool) Predictor {
	opts := []core.DynamicRVPOption{core.WithHints(hints)}
	if loadsOnly {
		opts = append(opts, core.LoadsOnly())
	}
	return core.MustDynamicRVP(core.DefaultCounterConfig(), opts...)
}

// StaticRVP returns the static scheme: marked instructions are always
// predicted (the rvp_load opcodes of Section 4.1).
func StaticRVP(marked map[int]bool, hints ReuseHints) Predictor {
	return core.NewStaticRVP("srvp", marked, hints)
}

// Profile holds a program's register-reuse profile (Section 5).
type Profile struct {
	pr *profile.Profile
}

// ProfileProgram runs the register-reuse profiler over prog for maxInsts
// committed instructions (0 = to completion).
func ProfileProgram(prog *Program, maxInsts uint64) (*Profile, error) {
	pr, err := profile.Run(prog.p, profile.Options{MaxInsts: maxInsts})
	if err != nil {
		return nil, err
	}
	return &Profile{pr: pr}, nil
}

// ReuseSummary is Figure 1's per-program bars: the fraction of dynamic
// loads whose value was already in the same register, a dead register,
// any register, or either a register or the last value.
type ReuseSummary = profile.ReuseSummary

// LoadReuse returns the profile's Figure 1 summary.
func (p *Profile) LoadReuse() ReuseSummary { return p.pr.LoadReuseSummary() }

// Hints derives compiler re-allocation hints at the given threshold and
// support level; loadsOnly restricts candidates to loads.
func (p *Profile) Hints(threshold float64, level Support, loadsOnly bool) ReuseHints {
	return p.pr.Lists(threshold, loadsOnly, 0).Hints(level)
}

// MarkedLoads returns the static-RVP marked set at the given threshold
// and support level.
func (p *Profile) MarkedLoads(threshold float64, level Support) map[int]bool {
	return p.pr.Lists(threshold, true, 0).Marked(level)
}

// ReallocReport summarises a register re-allocation.
type ReallocReport struct {
	DeadApplied, DeadDropped int
	LVApplied, LVDropped     int
}

// Reallocate applies the Section 7.3 register re-allocator: profiled
// dead-register and last-value reuse is converted into same-register
// reuse by Chaitin re-colouring, and the rewritten program is returned.
func Reallocate(prog *Program, prof *Profile, threshold float64) (*Program, ReallocReport, error) {
	lists := prof.pr.Lists(threshold, false, 0)
	res, err := regalloc.Reallocate(prog.p, prof.pr, lists)
	if err != nil {
		return nil, ReallocReport{}, err
	}
	return &Program{p: res.Prog}, ReallocReport{
		DeadApplied: res.DeadApplied,
		DeadDropped: res.DeadDropped,
		LVApplied:   res.LVApplied,
		LVDropped:   res.LVDropped,
	}, nil
}

// ExperimentOptions scales the paper-reproduction experiment drivers.
type ExperimentOptions = exp.Options

// Experiments regenerates the paper's tables and figures.
type Experiments struct {
	r *exp.Runner
}

// NewExperiments builds an experiment runner; zero-valued options take
// laptop-scale defaults.
func NewExperiments(opts ExperimentOptions) *Experiments {
	return &Experiments{r: exp.NewRunner(opts)}
}

// Figure1 reproduces the register-value reuse degrees for loads.
func (e *Experiments) Figure1() (*Table, error) { return e.r.Figure1() }

// Figure3 reproduces the static-RVP IPC comparison.
func (e *Experiments) Figure3() (*Table, error) { return e.r.Figure3() }

// Figure4 reproduces the recovery-mechanism comparison.
func (e *Experiments) Figure4() (*Table, error) { return e.r.Figure4() }

// Figure5 reproduces dynamic RVP for loads (speedups).
func (e *Experiments) Figure5() (*Table, error) { return e.r.Figure5() }

// Figure6 reproduces dynamic RVP for all instructions (speedups).
func (e *Experiments) Figure6() (*Table, error) { return e.r.Figure6() }

// Table2 reproduces prediction coverage and accuracy.
func (e *Experiments) Table2() (coverage, accuracy *Table, err error) { return e.r.Table2() }

// Figure7 reproduces the realistic register re-allocation study.
func (e *Experiments) Figure7() (*Table, error) { return e.r.Figure7() }

// Figure8 reproduces the 16-wide machine study.
func (e *Experiments) Figure8() (*Table, error) { return e.r.Figure8() }

// Table1 renders the simulated machine configuration.
func (e *Experiments) Table1() string { return e.r.Table1() }

// Service job re-exports (see internal/exp and internal/server): a
// JobSpec is the unit of work the rvpd simulation service accepts —
// one workload × predictor × recovery run or one figure sweep — and
// RunJob is the same crash-safe execution path the daemon's workers
// use, available in-process.
type (
	// JobSpec describes one service job (validated, normalizable,
	// stable-digest wire format).
	JobSpec = exp.JobSpec
	// JobResult is a successful job's payload: Stats for a run job, a
	// rendered Table for a figure job.
	JobResult = exp.JobResult
)

// JobFigures lists the figure names a "figure" job accepts.
func JobFigures() []string { return exp.JobFigures() }

// JobPredictors lists the predictor names a "run" job accepts: the
// built-in predictors, sorted.
func JobPredictors() []string { return exp.JobPredictors() }

// ParseRecovery resolves a recovery-scheme name: refetch, reissue or
// selective. Unknown names are errors wrapping ErrConfig.
func ParseRecovery(name string) (Recovery, error) { return exp.ParseRecovery(name) }

// RunJob executes one job spec with the experiment runner's crash
// safety: with opts.StateDir set, finished cells are journaled
// write-ahead, and rerunning the same spec against the same StateDir
// replays them instead of recomputing; an interrupted cell re-simulates
// from its start. Transient failures are retried once.
func RunJob(ctx context.Context, spec JobSpec, opts ExperimentOptions) (*JobResult, error) {
	return exp.RunJob(ctx, spec, opts)
}

// Lockstep differential validation re-exports (see internal/lockstep).
type (
	// LockstepOptions configures one differential validation run.
	LockstepOptions = lockstep.Options
	// LockstepResult summarizes a divergence-free differential run.
	LockstepResult = lockstep.Result
	// Divergence pinpoints the first disagreement between the pipeline
	// and the reference emulator; errors carrying one wrap ErrDivergence.
	Divergence = lockstep.Divergence
)

// Validate runs prog on the timing pipeline and the architectural
// reference emulator in lockstep, comparing every committed
// instruction's (PC, destination register, value) and — periodically and
// at the end of the run — the full register file and memory image. The
// first disagreement is reported as a SimError wrapping both
// ErrDivergence and a *Divergence locating the first divergent commit
// (bisected, for divergences only the state comparison can see). mkPred
// builds a fresh predictor; it is called once for the main run and again
// for each bisection replay.
func Validate(prog *Program, cfg Config, mkPred func() Predictor, opts LockstepOptions) (LockstepResult, error) {
	return lockstep.Run(prog.p, cfg, mkPred, opts)
}
