package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/stats"
	"rvpsim/internal/workloads"
)

// JobSpec is the job-shaped entry into the experiment runner: one
// workload × predictor × recovery simulation run, or one whole figure
// sweep. It is the wire format the simulation service accepts, so every
// field is validated before any simulator state is touched, and a
// normalized spec has a stable digest that keys the job's crash-safe
// simulation state (its journal) across process restarts.
type JobSpec struct {
	// Kind selects the job shape: "run" (one cell) or "figure" (a sweep).
	Kind string `json:"kind"`
	// Workload names the benchmark for "run" jobs (see workloads.Names).
	Workload string `json:"workload,omitempty"`
	// Predictor names the value predictor for "run" jobs (see
	// JobPredictors).
	Predictor string `json:"predictor,omitempty"`
	// Recovery selects the misprediction recovery scheme for "run" jobs:
	// refetch, reissue, or selective (the default).
	Recovery string `json:"recovery,omitempty"`
	// Figure names the sweep for "figure" jobs (see JobFigures).
	Figure string `json:"figure,omitempty"`
	// Insts is the committed-instruction budget per simulation run
	// (0 takes the server's default).
	Insts uint64 `json:"insts,omitempty"`
	// ProfileInsts is the profiling-pass budget (0 = Insts/4).
	ProfileInsts uint64 `json:"profile_insts,omitempty"`
	// Threshold is the profiler's predictability threshold (0 = 0.80).
	Threshold float64 `json:"threshold,omitempty"`
}

// MaxJobInsts bounds the per-run budget a job may request; admission
// control rejects anything larger before it can occupy a worker.
const MaxJobInsts = 100_000_000

// jobFigures maps figure names to their Runner drivers.
var jobFigures = map[string]func(*Runner) (*stats.Table, error){
	"fig1": (*Runner).Figure1,
	"fig3": (*Runner).Figure3,
	"fig4": (*Runner).Figure4,
	"fig5": (*Runner).Figure5,
	"fig6": (*Runner).Figure6,
	"fig7": (*Runner).Figure7,
	"fig8": (*Runner).Figure8,
}

// JobFigures lists the figure names a "figure" job accepts, sorted.
func JobFigures() []string { return sortedKeys(jobFigures) }

// JobPredictors lists the predictor names a "run" job accepts, sorted:
// the built-in predictor registry's wire names (core.PredictorNames).
func JobPredictors() []string {
	names := core.PredictorNames()
	sort.Strings(names)
	return names
}

// JobRecoveries lists the recovery-scheme names a "run" job accepts,
// sorted. Fleet sweeps use it to validate their recovery axis against
// the same vocabulary the job API enforces.
func JobRecoveries() []string { return sortedKeys(jobRecoveries) }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// jobRecoveries maps wire names to recovery schemes.
var jobRecoveries = map[string]pipeline.Recovery{
	"refetch":   pipeline.RecoverRefetch,
	"reissue":   pipeline.RecoverReissue,
	"selective": pipeline.RecoverSelective,
}

// ParseRecovery resolves a recovery-scheme wire name (see JobRecoveries).
// Unknown names are reported as errors wrapping simerr.ErrConfig.
func ParseRecovery(name string) (pipeline.Recovery, error) {
	rec, ok := jobRecoveries[name]
	if !ok {
		return 0, simerr.New("job", fmt.Errorf("unknown recovery %q (have %v): %w", name, JobRecoveries(), simerr.ErrConfig))
	}
	return rec, nil
}

// Normalize fills defaulted fields in place: recovery defaults to
// selective, a zero Insts takes defaultInsts (or the package default),
// ProfileInsts to Insts/4, Threshold to 0.80. Normalize before Digest so
// equivalent requests key the same simulation state.
func (s *JobSpec) Normalize(defaultInsts uint64) {
	if s.Kind == "run" && s.Recovery == "" {
		s.Recovery = "selective"
	}
	if s.Insts == 0 {
		s.Insts = defaultInsts
	}
	if s.Insts == 0 {
		s.Insts = DefaultOptions().Insts
	}
	if s.ProfileInsts == 0 {
		s.ProfileInsts = s.Insts / 4
	}
	if s.Threshold == 0 {
		s.Threshold = 0.80
	}
}

// Validate checks the spec against the known workloads, predictors,
// figures and recovery schemes. Violations are reported as errors
// wrapping simerr.ErrConfig, so the service maps them to 400s without
// string matching.
func (s JobSpec) Validate() error {
	bad := func(format string, args ...any) error {
		return simerr.New("job", fmt.Errorf(format+": %w", append(args, simerr.ErrConfig)...))
	}
	switch s.Kind {
	case "run":
		// Membership check only — building the workload's program is the
		// runner's job, not validation's.
		known := false
		for _, n := range workloads.Names() {
			if n == s.Workload {
				known = true
				break
			}
		}
		if !known {
			return bad("unknown workload %q (have %v)", s.Workload, workloads.Names())
		}
		if !slices.Contains(core.PredictorNames(), s.Predictor) {
			return bad("unknown predictor %q (have %v)", s.Predictor, JobPredictors())
		}
		if s.Recovery != "" {
			if _, ok := jobRecoveries[s.Recovery]; !ok {
				return bad("unknown recovery %q (refetch, reissue, selective)", s.Recovery)
			}
		}
		if s.Figure != "" {
			return bad("figure set on a run job")
		}
	case "figure":
		if _, ok := jobFigures[s.Figure]; !ok {
			return bad("unknown figure %q (have %v)", s.Figure, JobFigures())
		}
		if s.Workload != "" || s.Predictor != "" || s.Recovery != "" {
			return bad("workload/predictor/recovery set on a figure job")
		}
	case "":
		return bad("missing kind")
	default:
		return bad("unknown kind %q (run, figure)", s.Kind)
	}
	if s.Insts > MaxJobInsts {
		return bad("insts %d exceeds the %d limit", s.Insts, uint64(MaxJobInsts))
	}
	if s.ProfileInsts > MaxJobInsts {
		return bad("profile_insts %d exceeds the %d limit", s.ProfileInsts, uint64(MaxJobInsts))
	}
	if s.Threshold < 0 || s.Threshold > 1 {
		return bad("threshold %v outside [0,1]", s.Threshold)
	}
	return nil
}

// Digest returns a stable hex fingerprint of the spec. Normalize first:
// the digest of a normalized spec keys the job's on-disk simulation
// state, so a restarted daemon resumes the same journal.
func (s JobSpec) Digest() string {
	canon := fmt.Sprintf("kind=%s|wl=%s|pred=%s|rec=%s|fig=%s|n=%d|pn=%d|th=%.6f",
		s.Kind, s.Workload, s.Predictor, s.Recovery, s.Figure, s.Insts, s.ProfileInsts, s.Threshold)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:12])
}

// JobResult is the terminal payload of a successful job: Stats for a
// "run" job, a Table (plus its rendered text) for a "figure" job.
type JobResult struct {
	Stats *pipeline.Stats `json:"stats,omitempty"`
	Table *stats.Table    `json:"table,omitempty"`
	Text  string          `json:"text,omitempty"`
	// Digest is the envelope's integrity seal (Seal/Verify): a content
	// hash stamped by the producing daemon so a consumer — the fleet
	// coordinator above all — can detect a result corrupted in transit
	// before merging it.
	Digest string `json:"digest,omitempty"`
}

// contentDigest hashes the result's payload fields canonically: the
// fixed-order JSON encoding, which survives a wire round trip unchanged
// (Go's encoder is deterministic for a fixed struct shape, and float
// formatting round-trips exactly).
func (r *JobResult) contentDigest() string {
	body, err := json.Marshal(struct {
		Stats *pipeline.Stats
		Table *stats.Table
		Text  string
	}{r.Stats, r.Table, r.Text})
	if err != nil {
		// Only unmarshalable payloads fail, and JobResult holds none.
		panic("exp: marshaling JobResult for digest: " + err.Error())
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:16])
}

// Seal stamps the result with its content digest. The producing daemon
// seals just before persisting/serving the result.
func (r *JobResult) Seal() { r.Digest = r.contentDigest() }

// Verify reports whether the sealed digest matches the content. An
// unsealed result (no digest) verifies trivially — it carries no claim
// to check; every daemon in this tree seals, so fleet traffic is always
// covered.
func (r *JobResult) Verify() bool {
	if r == nil || r.Digest == "" {
		return true
	}
	return r.Digest == r.contentDigest()
}

// RunJob executes one job under the runner options. The spec's budgets
// and threshold override the corresponding options; ctx overrides
// opts.Context. With opts.StateDir set the job is crash-safe exactly
// like a -resume sweep: finished cells are journaled write-ahead, and a
// rerun of the same (normalized) spec against the same StateDir replays
// them instead of recomputing; an interrupted cell re-simulates from its
// start. A "run" job goes through the same isolation
// as every sweep cell (Runner.forEach): a panic becomes an error, and a
// failure the simulator marks transient (simerr.IsTransient) is retried
// once; retries are counted on the registry as exp_transient_retries.
func RunJob(ctx context.Context, spec JobSpec, opts Options) (*JobResult, error) {
	spec.Normalize(opts.Insts)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	opts.Insts = spec.Insts
	opts.ProfileInsts = spec.ProfileInsts
	opts.Threshold = spec.Threshold
	if ctx != nil {
		opts.Context = ctx
	}
	// A job-level span groups the profiling passes and simulation runs
	// below it; the runner parents its spans under this one.
	jsp := opts.Tracer.Start(opts.TraceParent, "job:"+spec.Kind)
	jsp.SetAttr("digest", spec.Digest())
	if spec.Kind == "figure" {
		jsp.SetAttr("figure", spec.Figure)
	} else {
		jsp.SetAttr("workload", spec.Workload)
		jsp.SetAttr("predictor", spec.Predictor)
	}
	if jsp != nil {
		opts.TraceParent = jsp.Context()
	}
	r := NewRunner(opts)
	defer r.Close()
	if err := r.EnableResume(); err != nil {
		jsp.EndErr(err)
		return nil, err
	}

	switch spec.Kind {
	case "run":
		cfg := pipeline.BaselineConfig()
		cfg.Recovery = jobRecoveries[spec.Recovery]
		var st pipeline.Stats
		attempts := 0
		fails, _ := r.forEach([]string{spec.Workload}, func(name string) (err error) {
			if attempts++; attempts > 1 {
				r.count("exp_transient_retries", "job runs retried after a transient failure")
			}
			// A fresh predictor per attempt: a failed run leaves dirty
			// predictor state behind.
			pred, _ := core.NewPredictor(spec.Predictor) // Validate accepted the name
			st, err = r.run(name, cfg, pred)
			return err
		})
		if err := fails[spec.Workload]; err != nil {
			jsp.EndErr(err)
			return nil, err
		}
		jsp.End()
		return &JobResult{Stats: &st}, nil
	case "figure":
		t, err := jobFigures[spec.Figure](r)
		if err != nil {
			jsp.EndErr(err)
			return nil, err
		}
		jsp.End()
		return &JobResult{Table: t, Text: t.String()}, nil
	}
	// Unreachable: Validate accepted the kind.
	jsp.End()
	return nil, simerr.Newf("job", "unhandled kind %q", spec.Kind)
}
