package exp

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rvpsim/internal/faultinject"
	"rvpsim/internal/obs"
	"rvpsim/internal/simerr"
)

func TestJobSpecValidate(t *testing.T) {
	good := []JobSpec{
		{Kind: "run", Workload: "go", Predictor: "rvp"},
		{Kind: "run", Workload: "hydro2d", Predictor: "none", Recovery: "refetch"},
		{Kind: "run", Workload: "perl", Predictor: "lvp", Recovery: "reissue", Insts: 1000},
		{Kind: "figure", Figure: "fig5"},
		{Kind: "figure", Figure: "fig1", Insts: 5000},
	}
	for _, s := range good {
		s.Normalize(0)
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	bad := []JobSpec{
		{},
		{Kind: "nope"},
		{Kind: "run", Workload: "nonesuch", Predictor: "rvp"},
		{Kind: "run", Workload: "go", Predictor: "nonesuch"},
		{Kind: "run", Workload: "go", Predictor: "rvp", Recovery: "nonesuch"},
		{Kind: "run", Workload: "go", Predictor: "rvp", Figure: "fig5"},
		{Kind: "figure", Figure: "fig2"},
		{Kind: "figure", Figure: "fig5", Workload: "go"},
		{Kind: "run", Workload: "go", Predictor: "rvp", Insts: MaxJobInsts + 1},
		{Kind: "run", Workload: "go", Predictor: "rvp", Threshold: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		} else if !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrConfig", s, err)
		}
	}
}

func TestJobSpecDigestStable(t *testing.T) {
	a := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp"}
	b := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp"}
	a.Normalize(50_000)
	b.Normalize(50_000)
	if a.Digest() != b.Digest() {
		t.Fatalf("equal normalized specs digest differently: %s vs %s", a.Digest(), b.Digest())
	}
	// Normalization itself must be what makes explicit and defaulted
	// equivalents collide.
	c := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Recovery: "selective",
		Insts: 50_000, ProfileInsts: 12_500, Threshold: 0.80}
	if c.Digest() != a.Digest() {
		t.Fatalf("explicit spec digests differently from normalized default")
	}
	d := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Recovery: "refetch"}
	d.Normalize(50_000)
	if d.Digest() == a.Digest() {
		t.Fatalf("different recovery, same digest")
	}
}

func TestRunJobRun(t *testing.T) {
	spec := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 20_000}
	res, err := RunJob(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Stats == nil || res.Table != nil {
		t.Fatalf("run job result shape wrong: %+v", res)
	}
	if res.Stats.Committed == 0 {
		t.Fatalf("run job committed nothing")
	}
}

func TestRunJobFigure(t *testing.T) {
	spec := JobSpec{Kind: "figure", Figure: "fig1", Insts: 20_000}
	res, err := RunJob(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if res.Table == nil || res.Text == "" {
		t.Fatalf("figure job result shape wrong: %+v", res)
	}
}

func TestRunJobInvalidSpec(t *testing.T) {
	if _, err := RunJob(context.Background(), JobSpec{Kind: "bogus"}, Options{}); !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("invalid spec error = %v, want ErrConfig", err)
	}
}

// TestRunJobTransientRetry proves the job entry retries once on a
// failure the simulator marks transient: one injected transient
// commit-batch fault fails the first attempt, and the retry (same
// injector, counters past the fault) succeeds.
func TestRunJobTransientRetry(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{
		Faults:   map[string]faultinject.Config{"go": {Transient: 1}},
		Registry: reg,
	}
	spec := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 20_000}
	res, err := RunJob(context.Background(), spec, opts)
	if err != nil {
		t.Fatalf("RunJob with transient fault: %v", err)
	}
	if res.Stats == nil {
		t.Fatalf("no stats after retry")
	}
	if got := reg.Counter("exp_transient_retries", "").Value(); got != 1 {
		t.Fatalf("exp_transient_retries = %d, want 1", got)
	}
}

// TestRunJobRecoversPanic: a panic inside a run job's simulation comes
// back from RunJob as an error attributed to the workload, as it does
// for a figure job's cells, instead of unwinding through the caller.
func TestRunJobRecoversPanic(t *testing.T) {
	opts := Options{Faults: map[string]faultinject.Config{"li": {PanicAfter: 1}}}
	spec := JobSpec{Kind: "run", Workload: "li", Predictor: "rvp", Insts: 20_000}
	res, err := RunJob(context.Background(), spec, opts)
	if err == nil {
		t.Fatalf("RunJob with an injected panic returned %+v and no error", res)
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "li") {
		t.Fatalf("panic not converted to an attributed error: %v", err)
	}
}

// TestRunJobResumesFromStateDir proves the crash-safe path: a job
// interrupted by context cancellation leaves its state dir behind, and
// rerunning the same spec against the same StateDir
// produces a result identical to an uninterrupted run.
func TestRunJobResumesFromStateDir(t *testing.T) {
	spec := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 60_000}

	ref, err := RunJob(context.Background(), spec, Options{})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "state")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // run is canceled before the first commit batch completes
	if _, err := RunJob(ctx, spec, Options{StateDir: dir}); err == nil {
		t.Fatalf("canceled run reported no error")
	}

	res, err := RunJob(context.Background(), spec, Options{StateDir: dir})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if *res.Stats != *ref.Stats {
		t.Fatalf("resumed stats differ from uninterrupted run:\n got %+v\nwant %+v", *res.Stats, *ref.Stats)
	}
}

// TestRunJobTracedWithProgress proves the observability plumbing end to
// end at the exp layer: a traced run job emits a connected span tree
// (job root -> sim run) parented under the caller's span, fires the
// progress heartbeat on the requested cadence with monotonically
// increasing committed counts.
func TestRunJobTracedWithProgress(t *testing.T) {
	tr := obs.NewTracer("test", 64)
	root := tr.Start(obs.SpanContext{}, "root")

	var mu sync.Mutex
	var progress []uint64
	var progLabels []string
	opts := Options{
		Tracer:        tr,
		TraceParent:   root.Context(),
		ProgressEvery: 5_000,
		OnProgress: func(label string, committed uint64, cycles int64) {
			mu.Lock()
			progress = append(progress, committed)
			progLabels = append(progLabels, label)
			mu.Unlock()
			if cycles <= 0 {
				t.Errorf("progress cycles = %d, want > 0", cycles)
			}
		},
		StateDir: filepath.Join(t.TempDir(), "state"),
	}
	spec := JobSpec{Kind: "run", Workload: "go", Predictor: "rvp", Insts: 30_000}
	if _, err := RunJob(context.Background(), spec, opts); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	root.End()

	mu.Lock()
	defer mu.Unlock()
	if len(progress) < 3 {
		t.Fatalf("progress fired %d times over 30k insts at 5k cadence, want >= 3", len(progress))
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] <= progress[i-1] {
			t.Fatalf("progress not monotonic: %v", progress)
		}
	}
	for _, l := range progLabels {
		if l != "go/drvp" {
			t.Fatalf("progress label = %q, want go/drvp", l)
		}
	}

	spans := tr.Spans()
	if !obs.ConnectedTrace(spans) {
		t.Fatalf("trace not connected: %+v", spans)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.Trace != root.Context().Trace {
			t.Fatalf("span %q on trace %q, want %q", s.Name, s.Trace, root.Context().Trace)
		}
	}
	for _, want := range []string{"root", "job:run", "sim:go/drvp"} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
}
