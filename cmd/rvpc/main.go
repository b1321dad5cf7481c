// Command rvpc is the rvpd client: submit simulation jobs, watch them
// live, poll their status, fetch their traces, and probe a daemon's
// health endpoints, with idempotency-keyed retries and exponential
// backoff that honors the server's Retry-After.
//
// Usage:
//
//	rvpc [-v] -server http://host:port submit -workload hydro2d -predictor rvp
//	     [-recovery selective] [-n insts] [-key K] [-wait|-watch] [-json]
//	     [-trace-out file.json]
//	rvpc -server http://host:port submit -figure fig5 [-n insts] [-wait]
//	rvpc -server http://host:port status <job-id> [-json]
//	rvpc -server http://host:port watch <job-id>
//	rvpc -server http://host:port trace <job-id> [-chrome] [-o file]
//	rvpc -server http://host:port health
//	rvpc -server http://host:port sweep [-workloads a,b] [-predictors p,q]
//	     [-recoveries r] [-n insts] [-wait] [-json] | sweep [-wait] <sweep-id>
//
// submit prints the server-assigned job and trace IDs on acceptance;
// with -wait it polls until the job is terminal and renders the result
// (exit 1 on a failed job), and with -watch it also prints the job's
// events (progress heartbeats with committed instructions and IPC,
// requeues, terminal state) as they happen. -trace-out writes the
// merged client+server span trace as a Chrome trace_event file
// loadable in chrome://tracing or ui.perfetto.dev.
//
// watch follows a job's events through long-polled status; each poll
// asks for the events past the last one seen, so a dropped poll loses
// nothing. trace prints a job's daemon-side spans. health checks /healthz, /readyz and /metrics, failing on any
// non-200. sweep submits a fleet sweep to the coordinator every rvpd
// hosts, or reports one; point -server at the rvpd whose -peers are the
// workers. -v logs every request, retry and backoff decision with the
// submission's trace ID.
//
// Rejections (429 queue shed, 503 drain or storage degraded) are
// retried with backoff under one idempotency key, so re-running a
// timed-out submit with the same -key can never double-run the job.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/exp"
	"rvpsim/internal/fleet"
	"rvpsim/internal/obs"
	"rvpsim/internal/server"
	"rvpsim/internal/server/shutdown"
)

func main() { os.Exit(run()) }

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rvpc [-v] -server URL {submit|status|watch|trace|sweep|health} [flags]")
	flag.PrintDefaults()
}

func run() int {
	serverURL := flag.String("server", "http://127.0.0.1:8080", "rvpd base URL")
	attempts := flag.Int("attempts", 10, "maximum submission attempts")
	verbose := flag.Bool("v", false, "log requests, retries and backoff (with trace IDs) to stderr")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		return 2
	}

	ctx, stop := shutdown.Context(context.Background())
	defer stop()
	opts := []client.Option{client.WithMaxAttempts(*attempts)}
	// The tracer is always on — client-side spans are cheap and bounded,
	// and they are what -trace-out and the server's admission span
	// parent under. -v controls only log verbosity.
	tracer := obs.NewTracer("rvpc", 256)
	opts = append(opts, client.WithTracer(tracer))
	if *verbose {
		opts = append(opts, client.WithLogger(slog.New(slog.NewTextHandler(os.Stderr,
			&slog.HandlerOptions{Level: slog.LevelDebug}))))
	}
	c := client.New(strings.TrimRight(*serverURL, "/"), opts...)

	switch flag.Arg(0) {
	case "submit":
		return submit(ctx, c, flag.Args()[1:])
	case "status":
		return status(ctx, c, flag.Args()[1:])
	case "watch":
		return watch(ctx, c, flag.Args()[1:])
	case "trace":
		return trace(ctx, c, flag.Args()[1:])
	case "sweep":
		return sweep(ctx, strings.TrimRight(*serverURL, "/"), flag.Args()[1:])
	case "health":
		return health(ctx, c)
	default:
		fmt.Fprintf(os.Stderr, "rvpc: unknown command %q\n", flag.Arg(0))
		usage()
		return 2
	}
}

func submit(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name for a run job")
	predictor := fs.String("predictor", "rvp", "predictor for a run job: "+strings.Join(exp.JobPredictors(), ", "))
	recovery := fs.String("recovery", "selective", "recovery scheme: refetch, reissue, selective")
	figure := fs.String("figure", "", "figure sweep instead of a single run: "+strings.Join(exp.JobFigures(), ", "))
	n := fs.Uint64("n", 0, "committed-instruction budget (0 = server default)")
	key := fs.String("key", "", "idempotency key (generated when empty; reuse to retry safely)")
	wait := fs.Bool("wait", false, "poll until the job is terminal and print the result")
	watchIt := fs.Bool("watch", false, "print the job's events as they happen until it is terminal")
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval with -wait")
	asJSON := fs.Bool("json", false, "print the job status as JSON")
	traceOut := fs.String("trace-out", "", "write the merged client+server trace (Chrome trace_event JSON) to this file")
	fs.Parse(args)

	var spec exp.JobSpec
	if *figure != "" {
		spec = exp.JobSpec{Kind: "figure", Figure: *figure, Insts: *n}
	} else {
		spec = exp.JobSpec{Kind: "run", Workload: *workload, Predictor: *predictor, Recovery: *recovery, Insts: *n}
	}

	st, err := c.Submit(ctx, spec, *key)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: submit: %v\n", err)
		return 1
	}
	if !*wait && !*watchIt {
		render(st, *asJSON)
		return 0
	}
	if *watchIt {
		if _, err := c.Watch(ctx, st.ID, 0, printEvent); err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: watch: %v\n", err)
			return 1
		}
		if st, err = c.Status(ctx, st.ID); err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: status: %v\n", err)
			return 1
		}
	} else {
		if st, err = c.Wait(ctx, st.ID, *poll); err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: wait: %v\n", err)
			return 1
		}
	}
	render(st, *asJSON)
	if *traceOut != "" {
		if err := writeMergedTrace(ctx, c, st.ID, *traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: trace-out: %v\n", err)
			return 1
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	if st.State != server.StateSucceeded {
		return 1
	}
	return 0
}

// writeMergedTrace joins the client's own spans with the daemon's for
// the job into one Chrome trace file.
func writeMergedTrace(ctx context.Context, c *client.Client, id, path string) error {
	srvSpans, err := c.Trace(ctx, id)
	if err != nil {
		return err
	}
	all := append(c.Spans(), srvSpans...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeSpans(f, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printEvent renders one live event as a human-readable line.
func printEvent(ev server.JobEvent) {
	ts := time.UnixMicro(ev.TimeUS).Format("15:04:05.000")
	switch ev.Type {
	case server.EvProgress:
		fmt.Printf("%s progress %s: %d insts, IPC %.3f\n", ts, ev.Label, ev.Committed, ev.IPC)
	case server.EvFailed:
		fmt.Printf("%s FAILED (attempt %d): %s\n", ts, ev.Attempt, ev.Error)
	case server.EvDone:
		fmt.Printf("%s done (attempt %d)\n", ts, ev.Attempt)
	default:
		fmt.Printf("%s %s\n", ts, ev.Type)
	}
}

// sweep talks to the sweep coordinator an rvpd hosts (point -server at
// the rvpd whose -peers are the workers): with axis flags it submits a
// fleet sweep; with a positional sweep ID it reports (or, with -wait,
// waits for) an existing one.
func sweep(ctx context.Context, base string, args []string) int {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	name := fs.String("name", "", "sweep/table name (defaulted from the sweep ID)")
	wls := fs.String("workloads", "", "comma-separated workloads (empty = all)")
	preds := fs.String("predictors", "", "comma-separated predictors (empty = all: "+strings.Join(exp.JobPredictors(), ", ")+")")
	recs := fs.String("recoveries", "", "comma-separated recovery schemes (empty = selective)")
	n := fs.Uint64("n", 0, "committed-instruction budget per cell (0 = coordinator default)")
	wait := fs.Bool("wait", false, "poll until every cell is terminal and print the merged table")
	poll := fs.Duration("poll", 500*time.Millisecond, "status poll interval with -wait")
	asJSON := fs.Bool("json", false, "print the sweep status as JSON")
	fs.Parse(args)

	cc := fleet.NewCoordClient(base)
	var st fleet.SweepStatus
	var err error
	if fs.NArg() >= 1 {
		id := fs.Arg(0)
		if *wait {
			st, err = cc.Wait(ctx, id, *poll)
		} else {
			st, err = cc.Status(ctx, id)
		}
	} else {
		split := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, ",")
		}
		spec := fleet.SweepSpec{
			Name: *name, Workloads: split(*wls), Predictors: split(*preds),
			Recoveries: split(*recs), Insts: *n,
		}
		st, err = cc.SubmitSweep(ctx, spec)
		if err == nil && *wait {
			st, err = cc.Wait(ctx, st.ID, *poll)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: sweep: %v\n", err)
		return 1
	}
	renderSweep(st, *asJSON)
	if st.Terminal() && st.State != "done" {
		return 1
	}
	return 0
}

// renderSweep prints one sweep status for humans (or as JSON).
func renderSweep(st fleet.SweepStatus, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
		return
	}
	fmt.Printf("sweep %s: %s (%d/%d done, %d failed, %d leased, %d ready)\n",
		st.ID, st.State, st.Done, st.Total, st.Failed, st.Leased, st.Ready)
	for _, w := range st.Workers {
		state := "down"
		if w.Live {
			state = "live"
		}
		if w.Draining {
			state = "draining"
		}
		fmt.Printf("  worker %s: %s, %d leased, %d done\n", w.URL, state, w.Leased, w.Done)
	}
	if st.TableText != "" {
		fmt.Println(st.TableText)
	}
}

func watch(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	after := fs.Int64("after", 0, "resume after this event sequence number")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvpc watch <job-id>")
		return 2
	}
	last, err := c.Watch(ctx, fs.Arg(0), *after, printEvent)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: watch: %v\n", err)
		return 1
	}
	if last.Type == server.EvFailed {
		return 1
	}
	return 0
}

func trace(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	chrome := fs.Bool("chrome", false, "emit Chrome trace_event JSON instead of one span per line")
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvpc trace <job-id> [-chrome] [-o file]")
		return 2
	}
	spans, err := c.Trace(ctx, fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: trace: %v\n", err)
		return 1
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: trace: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if *chrome {
		err = obs.WriteChromeSpans(w, spans)
	} else {
		err = obs.WriteSpansJSONL(w, spans)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: trace: %v\n", err)
		return 1
	}
	return 0
}

func status(ctx context.Context, c *client.Client, args []string) int {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the job status as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rvpc status <job-id>")
		return 2
	}
	st, err := c.Status(ctx, fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpc: status: %v\n", err)
		return 1
	}
	render(st, *asJSON)
	return 0
}

func health(ctx context.Context, c *client.Client) int {
	ok := true
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		body, err := c.CheckEndpoint(ctx, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rvpc: %s: %v\n", path, err)
			ok = false
			continue
		}
		line := strings.SplitN(strings.TrimSpace(body), "\n", 2)[0]
		fmt.Printf("%s: ok (%s)\n", path, line)
	}
	if !ok {
		return 1
	}
	return 0
}

// render prints one job status for humans (or as JSON).
func render(st server.JobStatus, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
		return
	}
	fmt.Printf("job %s: %s", st.ID, st.State)
	if st.Attempts > 0 {
		fmt.Printf(" (attempt %d)", st.Attempts)
	}
	if st.TraceID != "" {
		fmt.Printf(" trace %s", st.TraceID)
	}
	fmt.Println()
	switch {
	case st.Result != nil && st.Result.Text != "":
		fmt.Println(st.Result.Text)
	case st.Result != nil && st.Result.Stats != nil:
		s := st.Result.Stats
		fmt.Printf("  cycles %d, committed %d, IPC %.3f\n", s.Cycles, s.Committed, s.IPC())
	case st.Error != nil:
		fmt.Printf("  error: %s\n", st.Error.Message)
		if st.Error.Timeout {
			fmt.Println("  (per-job deadline exceeded)")
		}
		if st.Flight != nil {
			fmt.Printf("  flight recorder: %d event(s) before failure (spec %s); `status -json` for the dump\n",
				len(st.Flight.Events), st.Flight.SpecDigest)
		}
	}
}
