package bench

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rvpsim/internal/obs"
)

// Defaults shared by cmd/rvpbench and BENCHMARK.json.
const (
	// DefaultSeconds is the measurement window (BENCHMARK.json run_seconds).
	DefaultSeconds = 20
	// DefaultSeed is the seed used when none is given.
	DefaultSeed = 1
	// WorkDir holds scratch state, the record and the Chrome trace,
	// relative to the directory rvpbench runs in.
	WorkDir = ".rvpbench"
)

// setupRuns is how many set-up-only child processes run before each
// measured one; setup_s is the median over them and the measured run's
// own set-up.
const setupRuns = 24

// childTimeout bounds each child process.
const childTimeout = 175 * time.Second

const readyLine = "rvpbench: ready"

// Config is one rvpbench invocation.
type Config struct {
	Workload string // "" runs every workload
	Seed     int64
	Seconds  float64
	Trace    bool   // run the traced per-layer ledger instead
	Out      string // JSON record path
	TraceOut string // Chrome trace path (traced runs)
	// Child, set only on the command lines rvpbench builds for its own
	// child processes, is "setup", "run" or "trace".
	Child string
}

// Main runs rvpbench and returns its exit code. The parent process runs
// every measurement in a child process of its own binary, so each
// workload's peak RSS is its own and set-up time includes process start.
func Main(ctx context.Context, cfg Config, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(WorkDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "rvpbench: %v\n", err)
		return 1
	}
	if cfg.Child != "" {
		return child(ctx, cfg, stdout, stderr)
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = nil
		for _, w := range Workloads {
			names = append(names, w.Name)
		}
	} else if _, err := workloadByName(cfg.Workload); err != nil {
		fmt.Fprintf(stderr, "rvpbench: %v\n", err)
		return 2
	}
	rec := newRecord(cfg)
	if cfg.Trace {
		rep, _, err := spawn(ctx, cfg, "trace", cfg.Workload, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "rvpbench: trace: %v\n", err)
			return 1
		}
		rec.Reports = append(rec.Reports, rep)
	} else {
		for _, name := range names {
			rep, err := measure(ctx, cfg, name, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "rvpbench: %s: %v\n", name, err)
				return 1
			}
			rec.Reports = append(rec.Reports, rep)
		}
	}
	ok := true
	for _, rep := range rec.Reports {
		printReport(stdout, rep)
		ok = ok && rep.Correct
	}
	if err := rec.write(cfg.Out); err != nil {
		fmt.Fprintf(stderr, "rvpbench: record: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "record written to %s\n", cfg.Out)
	if len(rec.Reports) == 1 {
		line, err := resultLine(rec.Reports[0])
		if err != nil {
			fmt.Fprintf(stderr, "rvpbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, line)
	}
	if !ok {
		return 1
	}
	return 0
}

// measure runs setupRuns set-up-only children, then the measured child,
// and replaces the child's own setup_s with what this process saw: the
// median time from process start to set-up done. Set-up takes a few
// milliseconds and a garbage collection lands in some set-ups and not
// others, so one sample per run would not repeat.
func measure(ctx context.Context, cfg Config, name string, stderr io.Writer) (*Report, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		_, d, err := spawn(ctx, cfg, "setup", name, stderr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	rep, d, err := spawn(ctx, cfg, "run", name, stderr)
	if err != nil {
		return nil, err
	}
	setups = append(setups, d.Seconds())
	rep.set("setup_s", "s", median(setups), setups)
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// spawn runs one child process and returns its report (nil for set-up
// runs) and the time from start until it printed readyLine.
func spawn(ctx context.Context, cfg Config, mode, name string, stderr io.Writer) (*Report, time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(cfg.Seed, 10), "-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace-out", cfg.TraceOut)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	br := bufio.NewReader(out)
	first, _ := br.ReadString('\n')
	setup := time.Since(start)
	rest, _ := io.ReadAll(br)
	if err := cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	if strings.TrimSpace(first) != readyLine {
		return nil, 0, fmt.Errorf("%s child: no ready line", mode)
	}
	if mode == "setup" {
		return nil, setup, nil
	}
	var rep Report
	if err := json.Unmarshal(lastLine(rest), &rep); err != nil {
		return nil, 0, fmt.Errorf("%s child: report: %w", mode, err)
	}
	return &rep, setup, nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}

// child runs one measurement in this process: it prints readyLine when
// set-up is done and its report as the last line.
func child(ctx context.Context, cfg Config, stdout, stderr io.Writer) int {
	o := Options{Budget: DefaultBudget(), Seed: cfg.Seed, Seconds: cfg.Seconds, Dir: WorkDir}
	ready := func() { fmt.Fprintln(stdout, readyLine) }
	var rep *Report
	var err error
	switch cfg.Child {
	case "setup":
		err = SetupOnly(ctx, cfg.Workload, o, ready)
	case "run":
		rep, err = Run(ctx, cfg.Workload, o, ready)
	case "trace":
		o.Tracer = obs.NewTracer("rvpbench", 1<<20)
		ready()
		rep, err = Trace(ctx, o)
		if err == nil {
			err = writeChrome(cfg.TraceOut, o.Tracer)
		}
	default:
		err = fmt.Errorf("unknown child mode %q", cfg.Child)
	}
	if err != nil {
		fmt.Fprintf(stderr, "rvpbench: %v\n", err)
		return 1
	}
	if rep != nil {
		b, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(stderr, "rvpbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return 0
}

func writeChrome(path string, tr *obs.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the one-line JSON result: correctness, operation counts,
// and every metric's value and unit.
func resultLine(rep *Report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// Summary describes a metric's samples: the median and quartiles, and for
// more than ten samples the highest percentile with ten samples beyond it.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	PHi    float64 `json:"p_hi,omitempty"`
	PHiPct float64 `json:"p_hi_pct,omitempty"`
}

func summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Median: median(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	if n := len(xs); n > 10 {
		s.PHi = sorted(xs)[n-11]
		s.PHiPct = 100 * float64(n-10) / float64(n)
	}
	return s
}

func printReport(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "rvpbench %s\n", rep.Workload)
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %-10s", name, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			s := summarize(m.Samples)
			fmt.Fprintf(w, " n=%d median %.4g q1 %.4g q3 %.4g", s.N, s.Median, s.Q1, s.Q3)
			if s.N > 10 {
				fmt.Fprintf(w, " p%.1f %.4g", s.PHiPct, s.PHi)
			}
		}
		fmt.Fprintln(w)
	}
	frac := 0.0
	if rep.Attempted > 0 {
		frac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-32s %14.4f %-10s %d of %d operations failed\n", "fail_frac", frac, "ratio", rep.Failed, rep.Attempted)
	if rep.PeakRSSMB > 0 {
		fmt.Fprintf(w, "  %-32s %14.4f %-10s getrusage, when the measured work ended; not a bounded metric\n", "peak_rss_mb", rep.PeakRSSMB, "MB")
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// record is the JSON record of one rvpbench invocation: every sample,
// summarized, with what the numbers depend on.
type record struct {
	Started    string                        `json:"started"`
	GitSHA     string                        `json:"git_sha"`
	GoVersion  string                        `json:"go_version"`
	Nproc      int                           `json:"nproc"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Seed       int64                         `json:"seed"`
	Seconds    float64                       `json:"seconds"`
	Budget     Budget                        `json:"budget"`
	Reports    []*Report                     `json:"reports"`
	Summaries  map[string]map[string]Summary `json:"summaries"`
}

func newRecord(cfg Config) *record {
	sha := obs.GitDescribe("")
	if sha == "" {
		sha = "unknown"
	}
	return &record{
		Started:    time.Now().UTC().Format(time.RFC3339),
		GitSHA:     sha,
		GoVersion:  runtime.Version(),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
		Seconds:    cfg.Seconds,
		Budget:     DefaultBudget(),
	}
}

func (r *record) write(path string) error {
	r.Summaries = map[string]map[string]Summary{}
	for _, rep := range r.Reports {
		sums := map[string]Summary{}
		for name, m := range rep.Metrics {
			if len(m.Samples) > 0 {
				sums[name] = summarize(m.Samples)
			}
		}
		r.Summaries[rep.Workload] = sums
	}
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
