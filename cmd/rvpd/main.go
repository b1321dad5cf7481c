// Command rvpd is the simulation service daemon: an HTTP/JSON API in
// front of a bounded job queue with admission control, a fixed worker
// pool, and crash-safe job state. Every rvpd also hosts a fleet sweep
// coordinator (internal/fleet) that shards sweeps into cells, leases
// them to peer rvpd workers, and merges the results into a table
// byte-identical to a single-node run.
//
// Usage:
//
//	rvpd [-addr host:port] [-addr-file path] [-state dir] [-workers n]
//	     [-queue depth] [-max-wait dur] [-job-timeout dur]
//	     [-drain-timeout dur] [-insts n] [-ckpt-every n]
//	     [-watchdog cycles] [-max-body bytes] [-body-read-timeout dur]
//	     [-log-level level] [-log-json] [-progress-every n]
//	     [-peers url,...] [-advertise peer-url] [-advertise-url worker-url]
//
// -peers lists the rvpd workers this daemon's coordinator dispatches
// cells to. With -advertise, the daemon self-registers its bound
// address as a worker with a peer rvpd's coordinator (POST /v1/workers)
// after the listener comes up, retrying with backoff while that peer
// starts.
//
// Endpoints: POST /v1/jobs (submit; 429/503 + Retry-After under
// overload), GET /v1/jobs/{id} (status/results), GET /v1/jobs/{id}/events
// (live Server-Sent Events stream: progress heartbeats, checkpoints,
// terminal state; resumable via Last-Event-ID), GET /v1/jobs/{id}/trace
// (the job's daemon-side spans; ?format=chrome for chrome://tracing),
// POST /v1/sweeps, GET /v1/sweeps, GET /v1/sweeps/{id} (fleet sweeps
// and their merged tables), POST /v1/workers (register a worker),
// GET /healthz, GET /readyz (job admission), GET /metrics (Prometheus:
// srv_*, fleet_* and wal_* in one registry).
//
// The coordinator's write-ahead cell ledger (cells.jsonl) sits beside
// the job store in -state, so a restarted daemon resumes its sweeps
// with every finished cell intact.
//
// Logs are structured (log/slog) on stderr with job and trace IDs;
// -log-level debug adds per-request lines, -log-json switches to JSON
// for log shippers.
//
// On SIGINT/SIGTERM the daemon drains gracefully: it stops accepting
// (readyz flips to 503, submissions get 503 + Retry-After), lets
// in-flight jobs finish within -drain-timeout, checkpoints anything
// unfinished, and exits. Restarting with the same -state directory
// re-enqueues unfinished jobs and resumes them from their journals and
// checkpoints instead of recomputing. A second signal kills the process
// immediately.
//
// -addr-file writes the actually bound address (useful with -addr
// 127.0.0.1:0 in scripts and smoke tests).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/fleet"
	"rvpsim/internal/server"
	"rvpsim/internal/server/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	state := flag.String("state", "rvpd-state", "state directory: job store, journals, checkpoints")
	workers := flag.Int("workers", 0, "worker-pool size (0 = one per core)")
	queueDepth := flag.Int("queue", 64, "bounded queue depth (admission limit)")
	maxWait := flag.Duration("max-wait", 30*time.Second, "shed submissions when recent p99 queue wait exceeds this")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job deadline")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline before in-flight jobs are checkpointed")
	insts := flag.Uint64("insts", 2_000_000, "default committed-instruction budget for jobs that omit one")
	ckptEvery := flag.Uint64("ckpt-every", 200_000, "in-flight checkpoint cadence in committed instructions (0 = off)")
	watchdog := flag.Int("watchdog", 0, "abort a run if no instruction commits for N simulated cycles (0 = off)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum POST body size in bytes (larger gets 413)")
	bodyReadTimeout := flag.Duration("body-read-timeout", 30*time.Second, "slow-loris guard: deadline for reading one submission body (408 past it)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	progressEvery := flag.Uint64("progress-every", 100_000, "live-progress heartbeat cadence in committed instructions")
	peers := flag.String("peers", "", "comma-separated rvpd base URLs this daemon's sweep coordinator dispatches cells to")
	advertise := flag.String("advertise", "", "base URL of a peer rvpd to register with as a sweep worker once listening (e.g. http://127.0.0.1:8080)")
	advertiseURL := flag.String("advertise-url", "", "worker URL to advertise (default http://<bound addr>)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(strings.TrimSpace(*logLevel))); err != nil {
		fmt.Fprintf(os.Stderr, "rvpd: -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler).With("service", "rvpd")

	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	srv, err := server.New(server.Config{
		StateDir:        *state,
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		MaxWait:         *maxWait,
		JobTimeout:      *jobTimeout,
		DrainTimeout:    *drainTimeout,
		DefaultInsts:    *insts,
		CheckpointEvery: *ckptEvery,
		WatchdogCycles:  *watchdog,
		MaxBody:         *maxBody,
		BodyReadTimeout: *bodyReadTimeout,
		Logger:          logger,
		ProgressEvery:   *progressEvery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpd: %v\n", err)
		return 1
	}
	var peerURLs []string
	for _, u := range strings.Split(*peers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			peerURLs = append(peerURLs, u)
		}
	}
	coord, err := fleet.Open(fleet.Config{
		StateDir:     *state,
		Workers:      peerURLs,
		DefaultInsts: *insts,
		Registry:     srv.Registry(),
		Logger:       logger.With("component", "fleet"),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpd: %v\n", err)
		srv.Close()
		return 1
	}
	closeAll := func() error {
		coord.Stop()
		return srv.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpd: listen: %v\n", err)
		closeAll()
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rvpd: addr-file: %v\n", err)
			closeAll()
			return 1
		}
	}
	logger.Info("listening", "addr", bound, "state", *state, "workers", *workers,
		"queue", *queueDepth, "peers", peerURLs)

	mux := http.NewServeMux()
	sweeps := fleet.Handler(coord)
	for _, p := range []string{"/v1/sweeps", "/v1/sweeps/", "/v1/workers"} {
		mux.Handle(p, sweeps)
	}
	mux.Handle("/", srv.Handler())
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := shutdown.Context(context.Background())
	defer stop()

	// Self-register with the peer's coordinator once the listener is up.
	// Registration retries in the background (the peer may still be
	// starting) and gives up quietly on shutdown; a permanent rejection
	// is logged but does not kill the daemon — it can still serve direct
	// submissions.
	if *advertise != "" {
		self := *advertiseURL
		if self == "" {
			self = "http://" + bound
		}
		go func() {
			cl := client.New(*advertise, client.WithLogger(logger.With("component", "advertise")))
			if err := cl.RegisterWorker(ctx, self); err != nil && ctx.Err() == nil {
				logger.Warn("coordinator registration failed", "coordinator", *advertise,
					"worker", self, "error", err)
			}
		}()
	}
	select {
	case <-ctx.Done():
		logger.Info("signal received; draining")
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "rvpd: serve: %v\n", err)
		closeAll()
		return 1
	}

	// Drain order matters: the job layer first (stop accepting, finish
	// or checkpoint work) while the HTTP listener keeps answering
	// status polls, then the listener, then the coordinator (its ledger
	// already holds every finished cell; leased ones re-run on restart).
	clean := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	<-serveErr // Serve has returned ErrServerClosed by now
	if err := closeAll(); err != nil {
		logger.Error("close", "error", err)
	}
	if !clean {
		logger.Warn("drain deadline hit; unfinished jobs checkpointed for resume", "state", *state)
	}
	return 0
}
