// Command rvpsim runs one workload (or an assembly file) on the simulated
// machine under a chosen value predictor and prints the run statistics.
//
// Usage:
//
//	rvpsim [-w workload | -f prog.s] [-p predictor] [-n insts]
//	       [-recovery refetch|reissue|selective] [-wide] [-support level]
//	       [-trace out.json] [-events out.jsonl] [-metrics out.prom] [-json]
//	       [-timeout 30s] [-watchdog cycles] [-lockstep [-check-every n]]
//
// Predictors: the built-in names (none, rvp, rvp_loads, lvp, lvp_all,
// gabbay, stride, context; see rvpsim.Predictors) and the hint-assisted
// dynamic RVP variants rvp_dead and rvp_dead_lv, which profile the
// program first. -wide selects the 16-issue machine.
//
// -lockstep replaces the normal run with a differential validation run:
// the timing pipeline and the architectural reference emulator execute
// the program side by side, every committed instruction's (PC, dest
// register, value) is compared, and the full register/memory state is
// compared every -check-every commits. Any divergence exits nonzero with
// the first divergent commit identified.
//
// Observability: -trace writes a Chrome trace_event file (load it in
// chrome://tracing or https://ui.perfetto.dev), -events a JSONL event
// stream, -metrics a Prometheus text exposition snapshot, and -json
// replaces the human summary with the full Stats as one JSON object.
// -trace, -events and -top all read the run's one commit stream.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"rvpsim"
)

func main() {
	wl := flag.String("w", "li", "workload name (see -list)")
	file := flag.String("f", "", "assembly file to run instead of a workload")
	predName := flag.String("p", "rvp", "predictor: "+strings.Join(append(rvpsim.Predictors(), hinted...), "|"))
	n := flag.Uint64("n", 2_000_000, "committed-instruction budget (0 = to HALT)")
	recovery := flag.String("recovery", "selective", "value-mispredict recovery: refetch|reissue|selective")
	wide := flag.Bool("wide", false, "use the 16-issue machine")
	list := flag.Bool("list", false, "list workloads and exit")
	top := flag.Int("top", 0, "report the N most-predicted static instructions")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
	eventsOut := flag.String("events", "", "write a JSONL structured event stream")
	metricsOut := flag.String("metrics", "", "write a Prometheus text exposition metrics snapshot")
	jsonOut := flag.Bool("json", false, "emit the full run Stats as one JSON object instead of the text summary")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the run, e.g. 30s (0 = none)")
	watchdog := flag.Int("watchdog", 0, "abort if no instruction commits for N simulated cycles (0 = off)")
	lock := flag.Bool("lockstep", false, "differentially validate the pipeline against the reference emulator instead of a normal run")
	checkEvery := flag.Uint64("check-every", 10_000, "lockstep: compare full register/memory state every N commits")
	flag.Parse()

	if *list {
		for _, name := range rvpsim.Workloads() {
			fmt.Println(name)
		}
		return
	}

	prog, err := loadProgram(*wl, *file)
	if err != nil {
		fatal(err)
	}

	cfg := rvpsim.BaselineConfig()
	if *wide {
		cfg = rvpsim.AggressiveConfig()
	}
	cfg.WatchdogCycles = *watchdog
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if cfg.Recovery, err = rvpsim.ParseRecovery(*recovery); err != nil {
		fatal(err)
	}

	if *lock {
		res, lerr := rvpsim.Validate(prog, cfg, func() rvpsim.Predictor {
			p, perr := makePredictor(*predName, prog, *n)
			if perr != nil {
				fatal(perr)
			}
			return p
		}, rvpsim.LockstepOptions{MaxInsts: *n, CheckEvery: *checkEvery})
		if lerr != nil {
			fatal(lerr)
		}
		fmt.Printf("lockstep OK: %s under %s/%s: %d commits compared, %d state checks, zero divergences\n",
			prog.Name(), *predName, *recovery, res.Committed, res.StateChecks)
		return
	}

	pred, err := makePredictor(*predName, prog, *n)
	if err != nil {
		fatal(err)
	}

	type agg struct {
		execs, predicted, correct uint64
		lat                       int64
	}
	perInst := map[int]*agg{}
	record := func(tr rvpsim.TraceRecord) {
		a := perInst[tr.Index]
		if a == nil {
			a = &agg{}
			perInst[tr.Index] = a
		}
		a.execs++
		a.lat += tr.DoneAt - tr.Dispatch
		if tr.Predicted {
			a.predicted++
			if tr.Correct {
				a.correct++
			}
		}
	}

	// One tracer closure feeds every consumer of the commit stream.
	opts := rvpsim.RunOptions{MaxInsts: *n}
	var ct *rvpsim.ChromeTrace
	var jl *rvpsim.JSONLTrace
	var closers []func() error // each writer, then its file
	create := func(path string) *os.File {
		f, cerr := os.Create(path)
		if cerr != nil {
			fatal(cerr)
		}
		return f
	}
	if *traceOut != "" {
		f := create(*traceOut)
		ct = rvpsim.NewChromeTrace(f)
		// One lane per window slot keeps concurrently in-flight
		// instructions on separate trace rows.
		ct.Lanes = cfg.Window
		closers = append(closers, ct.Close, f.Close)
	}
	if *eventsOut != "" {
		f := create(*eventsOut)
		jl = rvpsim.NewJSONLTrace(f)
		closers = append(closers, jl.Close, f.Close)
	}
	if ct != nil || jl != nil || *top > 0 {
		opts.Trace = func(tr rvpsim.TraceRecord) {
			if ct != nil {
				ct.Trace(tr)
			}
			if jl != nil {
				jl.Trace(tr)
			}
			if *top > 0 {
				record(tr)
			}
		}
	}
	if *metricsOut != "" {
		opts.Metrics = rvpsim.NewRegistry()
	}
	st, err := rvpsim.Run(ctx, prog, cfg, pred, opts)
	for _, c := range closers {
		if cerr := c(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil && opts.Metrics != nil {
		err = writeMetrics(*metricsOut, opts.Metrics)
	}
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		b, jerr := json.MarshalIndent(st, "", "  ")
		if jerr != nil {
			fatal(jerr)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("program      %s (%d static instructions)\n", prog.Name(), prog.Len())
	fmt.Printf("predictor    %s, recovery %s\n", *predName, *recovery)
	fmt.Printf("committed    %d instructions in %d cycles (IPC %.3f)\n", st.Committed, st.Cycles, st.IPC())
	fmt.Printf("predictions  %d (%.1f%% of instructions), %.2f%% correct\n",
		st.Predicted, 100*st.Coverage(), 100*st.Accuracy())
	fmt.Printf("branches     %.2f%% conditional mispredict rate\n", 100*st.BranchMispredictRate())
	fmt.Printf("caches       L1D %.1f%% miss, L1I %.1f%% miss, L2 %.1f%% miss\n",
		missPct(st.DL1Hits, st.DL1Misses), missPct(st.IL1Hits, st.IL1Misses), missPct(st.L2Hits, st.L2Misses))
	fmt.Printf("stalls       window %d, intIQ %d, fpIQ %d (dispatch cycles)\n",
		st.StallWindow, st.StallIntIQ, st.StallFPIQ)

	if *top > 0 {
		idxs := make([]int, 0, len(perInst))
		for i := range perInst {
			idxs = append(idxs, i)
		}
		sort.Slice(idxs, func(a, b int) bool {
			return perInst[idxs[a]].predicted > perInst[idxs[b]].predicted
		})
		if len(idxs) > *top {
			idxs = idxs[:*top]
		}
		fmt.Printf("\nmost-predicted static instructions:\n")
		fmt.Printf("%8s %-28s %10s %10s %8s %9s\n", "index", "instruction", "execs", "predicted", "acc%", "avg lat")
		for _, i := range idxs {
			a := perInst[i]
			if a.predicted == 0 {
				break
			}
			fmt.Printf("%8d %-28s %10d %10d %7.1f%% %9.1f\n",
				i, prog.InstString(i), a.execs, a.predicted,
				100*float64(a.correct)/float64(a.predicted),
				float64(a.lat)/float64(a.execs))
		}
	}
}

func loadProgram(wl, file string) (*rvpsim.Program, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return rvpsim.Assemble(file, string(src))
	}
	return rvpsim.Workload(wl)
}

// hinted are the command's own predictor names beyond the built-in ones:
// dynamic RVP with compiler hints at the dead and dead+LV support levels,
// derived from profiling the program first.
var hinted = []string{"rvp_dead", "rvp_dead_lv"}

// makePredictor builds a built-in predictor by name, or one of the
// hinted variants.
func makePredictor(name string, prog *rvpsim.Program, budget uint64) (rvpsim.Predictor, error) {
	level := rvpsim.SupportDead
	switch name {
	case "rvp_dead":
	case "rvp_dead_lv":
		level = rvpsim.SupportDeadLV
	default:
		return rvpsim.NewPredictor(name)
	}
	pr, err := rvpsim.ProfileProgram(prog, budget/4)
	if err != nil {
		return nil, err
	}
	return rvpsim.DynamicRVPWithHints(pr.Hints(0.8, level, false), false), nil
}

// writeMetrics dumps the registry as Prometheus text exposition.
func writeMetrics(path string, reg *rvpsim.Registry) error {
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

func missPct(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(misses) / float64(hits+misses)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rvpsim:", err)
	os.Exit(1)
}
