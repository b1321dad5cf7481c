// Command rvpbench is the repository's benchmark: four end-to-end
// workloads over the simulator, figure regeneration, the rvpd service and
// a loopback fleet, plus a separate traced run that attributes time to
// each layer. See internal/bench/README.md.
//
// Usage:
//
//	rvpbench [-workload name] [-seed n] [-seconds s] [-trace]
//	         [-out record.json] [-trace-out trace.json] [-update-golden]
//
// With no -workload it runs sim-hot, figures, serve and fleet in turn,
// each in a child process, and prints every metric with its unit. With
// -workload it runs that one and ends its output with a one-line JSON
// result ({"correct", "attempted", "failed", "metrics"}). -trace runs the
// per-layer ledger instead and writes the benchmark's own spans as a
// Chrome trace. Every run writes a JSON record with all samples, their
// medians and quartiles, stamped with nproc, GOMAXPROCS, the Go version,
// the git revision and the seed.
//
// -update-golden rewrites internal/bench/testdata/golden.json; use it only
// in a change that says it alters the model's output.
//
// A harness that reads BENCHMARK.json runs its command (run.sh, which
// builds this program and runs it) as
//
//	<command> --workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>
//
// so every one of those four flags is part of that interface; -seconds
// defaults to run_seconds. Flags may be given as -name value or --name
// value; -trace also accepts an explicit 0 or 1 (--trace 1).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rvpsim/internal/bench"
	"rvpsim/internal/server/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "run only this workload (sim-hot, figures, serve, fleet)")
	seed := flag.Int64("seed", bench.DefaultSeed, "seed permuting cell, driver and submission order")
	seconds := flag.Float64("seconds", bench.DefaultSeconds, "measurement window per workload, seconds (BENCHMARK.json run_seconds)")
	trace := flag.Bool("trace", false, "run the traced per-layer ledger instead of the workloads")
	out := flag.String("out", filepath.Join(bench.WorkDir, "record.json"), "JSON record path")
	traceOut := flag.String("trace-out", filepath.Join(bench.WorkDir, "trace.json"), "Chrome trace path for -trace")
	update := flag.Bool("update-golden", false, "rewrite the golden outputs (only for a change to the model)")
	child := flag.String("child", "", "internal: run one measurement in this process")
	if err := flag.CommandLine.Parse(explicitBools(os.Args[1:])); err != nil {
		return 2
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "rvpbench: unexpected arguments %q\n", flag.Args())
		return 2
	}

	ctx, stop := shutdown.Context(context.Background())
	defer stop()

	if *update {
		if err := bench.UpdateGolden(ctx, bench.GoldenPath, bench.DefaultBudget(), bench.SmokeBudget()); err != nil {
			fmt.Fprintf(os.Stderr, "rvpbench: update golden: %v\n", err)
			return 1
		}
		fmt.Printf("golden outputs written to %s\n", bench.GoldenPath)
		return 0
	}
	return bench.Main(ctx, bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace,
		Out:      *out,
		TraceOut: *traceOut,
		Child:    *child,
	}, os.Stdout, os.Stderr)
}

// explicitBools joins "-trace 0" and "--trace 1" into "-trace=0" and
// "--trace=1": the flag package never takes a boolean's value from the
// next argument, and would stop parsing at the stray "0".
func explicitBools(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}
