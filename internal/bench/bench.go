// Package bench is the library behind cmd/rvpbench: four end-to-end
// workloads over the paths people run (a hot simulator loop, figure
// regeneration, the rvpd job service and a loopback sweep fleet) and a
// traced run that attributes time to each layer.
//
// Every number comes from outside the program. The workloads drive the
// shipped defaults of experiments, rvpd and rvpcoord through their public
// APIs, and the traced run times calls into each layer's public functions
// from this package; nothing inside the simulator or the services is
// instrumented. See README.md for the workloads, the metrics and how to
// compare two commits.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"rvpsim/internal/obs"
)

// Budget sizes the workloads. The benchmark runs DefaultBudget; the smoke
// test runs SmokeBudget so that every path finishes in seconds.
type Budget struct {
	SimInsts   uint64 // sim-hot: committed instructions per cell
	FigInsts   uint64 // figures: the experiments -n budget (profiles take n/4)
	JobInsts   uint64 // serve: per-job budget
	FleetInsts uint64 // fleet: per-cell budget
	// FleetWorkloads are the fleet sweep's workloads, each run under
	// {none, rvp}.
	FleetWorkloads []string
	// ServeWarmup is the unrecorded closed-loop phase before serve's
	// measured window.
	ServeWarmup time.Duration
}

// DefaultBudget is the benchmark's size.
func DefaultBudget() Budget {
	return Budget{
		SimInsts:       1_000_000,
		FigInsts:       1_000_000,
		JobInsts:       200_000,
		FleetInsts:     1_000_000,
		FleetWorkloads: []string{"go", "ijpeg", "li", "m88ksim", "perl", "hydro2d", "mgrid", "su2cor"},
		ServeWarmup:    3 * time.Second,
	}
}

// SmokeBudget is the smoke test's size: every path takes about a second
// or less, except the fleet sweeps, whose pace the coordinator's 2.5 s
// heartbeat sets.
func SmokeBudget() Budget {
	return Budget{
		SimInsts:       20_000,
		FigInsts:       20_000,
		JobInsts:       20_000,
		FleetInsts:     20_000,
		FleetWorkloads: []string{"li"},
		ServeWarmup:    100 * time.Millisecond,
	}
}

// Options configures one in-process measurement.
type Options struct {
	Budget Budget
	// Seed permutes cell, driver and submission order; the work done is
	// the same for every seed.
	Seed int64
	// Seconds is the measurement window. Workloads made of long operations
	// (sim-hot passes, figure repetitions) start another one only while it
	// is expected to end inside the window, and always run at least one.
	Seconds float64
	// Dir holds the scratch state directories servers and stores need.
	Dir string
	// Tracer, set for the traced run, collects the benchmark's own spans.
	Tracer *obs.Tracer
}

// Metric is one measured number. Value derives from Samples (a median, a
// percentile or a ratio, as each workload documents); Samples is kept so
// that the record holds every observation, not just the summary.
type Metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples []float64 `json:"samples,omitempty"`
}

// Report is what one workload run, or the traced run, produced.
type Report struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// PeakRSSMB is the process's getrusage maximum RSS when the measured
	// work ended (see measured).
	PeakRSSMB float64  `json:"peak_rss_mb,omitempty"`
	Notes     []string `json:"notes,omitempty"`
}

func newReport(workload string) *Report {
	return &Report{Workload: workload, Metrics: map[string]Metric{}}
}

// set records a metric. A value that is not a finite number (a median of
// no samples) fails the run rather than reaching the record.
func (r *Report) set(name, unit string, v float64, samples []float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s: no value (%d samples)", name, len(samples))
		v = 0
	}
	r.Metrics[name] = Metric{Unit: unit, Value: v, Samples: samples}
}

// fail counts one failed operation or output mismatch.
func (r *Report) fail(format string, args ...any) {
	r.Failed++
	r.note(format, args...)
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// latencies records op_p50_ms and op_tail_ms: the median and the p90 of
// the workload's operation latencies (with fewer than ten operations the
// p90 is the slowest). p90 rather than p99 because on a shared machine
// the p99 of a 20 s window moves by a fifth between identical runs.
func (r *Report) latencies(msSamples []float64) {
	r.set("op_p50_ms", "ms", median(msSamples), msSamples)
	r.set("op_tail_ms", "ms", percentile(msSamples, 0.90), msSamples)
}

// totalAlloc is the heap bytes this process has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// measured records what the workload's measured work cost in memory, and
// is called when that work ends, before outputs are checked:
// alloc_mb_per_op, the heap allocated per operation since since (a
// totalAlloc reading taken when the work began), and the process's peak
// RSS so far. Peak RSS is kept in the record but is not a metric: it
// depends on where garbage collections fall and moved by 10-30% between
// identical runs, while allocation volume repeats within a few percent.
func (r *Report) measured(since uint64, ops int) {
	r.set("alloc_mb_per_op", "MB", float64(totalAlloc()-since)/(1<<20)/float64(ops), nil)
	r.PeakRSSMB = maxRSSMB()
}

// session is one set-up workload: run measures it, close tears it down.
type session interface {
	run(ctx context.Context, rep *Report) error
	close() error
}

// Workload is one benchmark workload. Why each exists is recorded with
// its name in BENCHMARK.json and README.md.
type Workload struct {
	Name  string
	setup func(ctx context.Context, o Options) (session, error)
}

// Workloads are the benchmark's workloads, in run order.
var Workloads = []Workload{
	{"sim-hot", setupSimHot},
	{"figures", setupFigures},
	{"serve", setupServe},
	{"fleet", setupFleet},
}

func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Run sets workload name up, calls ready (the end of set-up), measures it
// and tears it down. The report's setup_s is this process's own set-up;
// cmd/rvpbench replaces it with the median, over several child processes,
// of the time from process start to the end of set-up.
func Run(ctx context.Context, name string, o Options, ready func()) (*Report, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	s, err := w.setup(ctx, o)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	setup := time.Since(start)
	if ready != nil {
		ready()
	}
	rep := newReport(name)
	rep.set("setup_s", "s", setup.Seconds(), nil)
	err = s.run(ctx, rep)
	if cerr := s.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: teardown: %w", name, cerr)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// SetupOnly sets workload name up, calls ready and tears it down again:
// one more set-up sample for setup_s.
func SetupOnly(ctx context.Context, name string, o Options, ready func()) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	s, err := w.setup(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: setup: %w", name, err)
	}
	if ready != nil {
		ready()
	}
	return s.close()
}

// another reports whether one more operation of the typical length in ops
// still ends inside the window that began at start.
func another(start time.Time, seconds float64, ops []float64) bool {
	return time.Since(start).Seconds()+median(ops) <= seconds
}

// maxRSSMB is this process's peak resident set size (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall lacks.
const clockThreadCPUTime = 3

// threadCPUSeconds is the calling OS thread's CPU time so far, to the
// nanosecond (getrusage's per-thread times move in scheduler ticks of
// several milliseconds). Callers lock their goroutine to its thread
// around the interval they time. Unlike wall time it leaves out the time
// the thread waited for a CPU, whether other processes or the hypervisor
// held it.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return math.NaN()
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs: the smallest sample
// with at least q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return sorted(xs)[k]
}

// quartiles are the first and third quartiles by the method of Python's
// statistics.quantiles(xs, n=4), which is how spreads are judged.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
