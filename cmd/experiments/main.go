// Command experiments regenerates every table and figure from the
// paper's evaluation section.
//
// Usage:
//
//	experiments [-n insts] [-profile insts] [-serial] [-workers n]
//	            [-warmup insts] [-md report.md]
//	            [-only fig1,fig3,...] [-manifest dir] [-metrics out.prom]
//	            [-pprof dir] [-heartbeat seconds] [-watchdog cycles]
//	            [-resume dir] [-ckpt-every insts]
//
// With no -only filter it runs the full set: Figure 1 (reuse degrees),
// Table 1 (machine config), Figure 3 (static RVP), Figure 4 (recovery
// mechanisms), Figure 5 (dynamic RVP, loads), Figure 6 (dynamic RVP, all
// instructions), Table 2 (coverage/accuracy), Figure 7 (realistic
// re-allocation), Figure 8 (16-wide machine), plus the extension tables
// (predictor cost/benefit and the confidence-threshold sweep) under
// "ext". With -md, a markdown report is also written.
//
// Observability: -manifest writes one machine-readable JSON run manifest
// per figure (options, git describe, wall clock, result tables, and a
// metrics snapshot); -metrics writes the sweep-wide Prometheus snapshot;
// -pprof captures CPU and heap profiles of the whole sweep; -heartbeat
// prints progress lines to stderr while long sweeps run.
//
// Robustness: a failing workload does not sink the sweep. Its cells are
// rendered as ERR with the failure reason footnoted, the remaining
// figures still run, a warning goes to stderr, and the binary exits
// nonzero at the end. -watchdog arms the pipeline's forward-progress
// watchdog so a hung run aborts with a structured error.
//
// Crash safety: -resume names a state directory holding a write-ahead
// journal (journal.jsonl) plus per-run checkpoints (ckpt/*.ckpt). Every
// finished cell is fsync'd to the journal before aggregation; rerunning
// with the same -resume dir replays completed cells and re-enters
// half-finished runs from their latest checkpoint (cadence set by
// -ckpt-every). SIGINT/SIGTERM checkpoint in-flight runs and exit
// cleanly, so an interrupted sweep loses no completed work.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/server/shutdown"
	"rvpsim/internal/stats"
)

func main() { os.Exit(run()) }

func run() int {
	n := flag.Uint64("n", 2_000_000, "committed-instruction budget per run")
	prof := flag.Uint64("profile", 0, "profiling budget (default n/4)")
	serial := flag.Bool("serial", false, "run workloads serially")
	workers := flag.Int("workers", 0, "parallel sweep worker count (0 = one per core)")
	warmup := flag.Uint64("warmup", 0, "fast-forward each workload this many instructions once, fork the warmed state into every cell (0 = cold start)")
	md := flag.String("md", "", "also write a markdown report to this file")
	only := flag.String("only", "", "comma-separated subset: fig1,tab1,fig3,fig4,fig5,fig6,tab2,fig7,fig8,ext")
	manifestDir := flag.String("manifest", "", "write one JSON run manifest per figure into this directory")
	metricsOut := flag.String("metrics", "", "write a sweep-wide Prometheus metrics snapshot to this file")
	pprofDir := flag.String("pprof", "", "capture CPU and heap profiles of the sweep into this directory")
	heartbeat := flag.Int("heartbeat", 0, "print a progress heartbeat to stderr every N seconds (0 = off)")
	watchdog := flag.Int("watchdog", 0, "abort a run if no instruction commits for N simulated cycles (0 = off)")
	resumeDir := flag.String("resume", "", "state directory for crash-safe sweeps: journal finished cells, checkpoint and resume in-flight runs")
	ckptEvery := flag.Uint64("ckpt-every", 500_000, "auto-checkpoint cadence in committed instructions for in-flight runs (needs -resume; 0 = off)")
	flag.Parse()

	ctx, stop := shutdown.Context(context.Background())
	defer stop()

	opts := exp.DefaultOptions()
	opts.Insts = *n
	if *prof != 0 {
		opts.ProfileInsts = *prof
	} else {
		opts.ProfileInsts = *n / 4
	}
	opts.Parallel = !*serial
	opts.MaxWorkers = *workers
	opts.WarmupInsts = *warmup
	opts.WatchdogCycles = *watchdog
	opts.Context = ctx
	if *resumeDir != "" {
		opts.StateDir = *resumeDir
		opts.CheckpointEvery = *ckptEvery
	}

	reg := obs.NewRegistry()
	if *manifestDir != "" || *metricsOut != "" {
		opts.Registry = reg
	}

	var progress *obs.Progress
	if *heartbeat > 0 {
		progress = obs.NewProgress(os.Stderr, time.Duration(*heartbeat)*time.Second, 0)
		opts.OnRunDone = progress.Step
		progress.Start()
		defer progress.Stop()
	}

	if *pprofDir != "" {
		capture, err := obs.StartProfiles(*pprofDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			return 1
		}
		defer func() {
			if err := capture.Stop(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: pprof: %v\n", err)
			}
		}()
	}

	r := exp.NewRunner(opts)
	if err := r.EnableResume(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: resume: %v\n", err)
		return 1
	}
	defer r.Close()
	if *resumeDir != "" {
		if done := r.Journaled(); done > 0 {
			fmt.Printf("resuming from %s: %d completed cells journaled\n", *resumeDir, done)
		}
	}

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			want[strings.TrimSpace(s)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	var report strings.Builder
	fmt.Fprintf(&report, "# rvpsim experiment report\n\n%d committed instructions per run.\n\n", *n)

	// jobTables collects the current job's tables for its manifest.
	var jobTables []*stats.Table
	emit := func(tables ...*stats.Table) {
		for _, t := range tables {
			fmt.Println(t)
			report.WriteString(t.Markdown())
			report.WriteByte('\n')
			jobTables = append(jobTables, t)
		}
	}

	type job struct {
		key string
		run func() error
	}
	// Drivers return partial tables alongside their error, so a failed
	// workload's figure is still printed with ERR cells.
	one := func(f func() (*stats.Table, error)) func() error {
		return func() error {
			t, err := f()
			if t != nil {
				emit(t)
			}
			return err
		}
	}
	jobs := []job{
		{"fig1", one(r.Figure1)},
		{"tab1", func() error {
			s := r.Table1()
			fmt.Println(s)
			fmt.Fprintf(&report, "### Table 1\n\n```\n%s```\n\n", s)
			return nil
		}},
		{"fig3", one(r.Figure3)},
		{"fig4", one(r.Figure4)},
		{"fig5", one(r.Figure5)},
		{"fig6", one(r.Figure6)},
		{"tab2", func() error {
			cov, acc, err := r.Table2()
			if cov != nil {
				emit(cov)
			}
			if acc != nil {
				emit(acc)
			}
			return err
		}},
		{"fig7", one(r.Figure7)},
		{"fig8", one(r.Figure8)},
		{"ext", func() error {
			t, err := r.StorageTable()
			if t != nil {
				emit(t)
			}
			t2, err2 := r.ThresholdTable()
			if t2 != nil {
				emit(t2)
			}
			return errors.Join(err, err2)
		}},
	}
	gitRev := ""
	if *manifestDir != "" {
		gitRev = obs.GitDescribe("")
	}
	var failed []string
	for _, j := range jobs {
		if !sel(j.key) {
			continue
		}
		jobTables = nil
		start := time.Now()
		if err := j.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", j.key, err)
			failed = append(failed, j.key)
		}
		elapsed := time.Since(start)
		fmt.Printf("[%s done in %v]\n\n", j.key, elapsed.Round(time.Millisecond))
		if *manifestDir != "" {
			if err := writeManifest(*manifestDir, j.key, gitRev, opts, start, elapsed, jobTables, reg); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: manifest %s: %v\n", j.key, err)
				return 1
			}
		}
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: metrics: %v\n", err)
			return 1
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsOut)
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: write %s: %v\n", *md, err)
			return 1
		}
		fmt.Printf("markdown report written to %s\n", *md)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; in-flight runs checkpointed")
		if *resumeDir != "" {
			fmt.Fprintf(os.Stderr, "experiments: rerun with -resume %s to continue where this sweep stopped\n", *resumeDir)
		} else {
			fmt.Fprintln(os.Stderr, "experiments: rerun with -resume <dir> to make sweeps restartable")
		}
		return 1
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: completed with failures in: %s\n", strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// manifestConfig is the reproducibility-relevant slice of exp.Options.
type manifestConfig struct {
	Insts        uint64  `json:"insts"`
	ProfileInsts uint64  `json:"profile_insts"`
	Threshold    float64 `json:"threshold"`
	Parallel     bool    `json:"parallel"`
	MaxWorkers   int     `json:"max_workers,omitempty"`
	WarmupInsts  uint64  `json:"warmup_insts,omitempty"`
}

// writeManifest records one figure's run: config, revision, wall clock,
// the result tables, and the sweep-so-far metrics snapshot.
func writeManifest(dir, key, gitRev string, opts exp.Options, start time.Time, elapsed time.Duration, tables []*stats.Table, reg *obs.Registry) error {
	host, _ := os.Hostname()
	snap := reg.Snapshot()
	m := &obs.Manifest{
		Name:      key,
		StartedAt: start.UTC(),
		WallClock: elapsed.Seconds(),
		Git:       gitRev,
		GoVersion: runtime.Version(),
		Hostname:  host,
		Config: manifestConfig{
			Insts:        opts.Insts,
			ProfileInsts: opts.ProfileInsts,
			Threshold:    opts.Threshold,
			Parallel:     opts.Parallel,
			MaxWorkers:   opts.MaxWorkers,
			WarmupInsts:  opts.WarmupInsts,
		},
		Results: tables,
		Metrics: &snap,
	}
	return obs.WriteManifest(filepath.Join(dir, key+".json"), m)
}

// writeMetrics dumps the registry as Prometheus text exposition.
func writeMetrics(path string, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
