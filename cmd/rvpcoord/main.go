// Command rvpcoord is the fleet coordinator: it shards sweeps into
// cells, dispatches them to rvpd workers with time-bounded leases,
// steals straggler leases, and merges per-cell results into the final
// figure table — byte-identical to a single-node run no matter which
// workers survive.
//
// Usage:
//
//	rvpcoord [-addr host:port] [-addr-file path] [-state dir]
//	         [-workers url,url,...] [-lease dur] [-heartbeat dur]
//	         [-steal-age dur] [-poll dur] [-attempts n] [-insts n]
//	         [-tenant name] [-log-level level] [-log-json]
//
// Endpoints: POST /v1/sweeps (submit a sweep spec), GET /v1/sweeps and
// GET /v1/sweeps/{id} (status + merged table once done), POST
// /v1/workers (register a worker at runtime), GET /healthz, GET
// /metrics (fleet gauges: live workers, ready/leased/done cells,
// steals, lease expiries).
//
// State is a CRC-enveloped write-ahead cell ledger under -state:
// SIGKILL the coordinator and restart it with the same directory and
// every finished cell stays finished; only unfinished cells re-run.
//
// On SIGINT/SIGTERM the coordinator stops dispatching and exits;
// nothing is lost because nothing unledgered is ever acknowledged.
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
	"strings"
	"time"

	"rvpsim/internal/fleet"
	"rvpsim/internal/server/shutdown"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:8070", "listen address (use :0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	state := flag.String("state", "rvpcoord-state", "state directory for the cell ledger")
	workers := flag.String("workers", "", "comma-separated rvpd base URLs to dispatch to")
	lease := flag.Duration("lease", 10*time.Second, "cell lease duration (expired leases return the cell to ready)")
	heartbeat := flag.Duration("heartbeat", 0, "lease-renewal long-poll window (default lease/4)")
	stealAge := flag.Duration("steal-age", 0, "minimum lease age before an idle worker may steal it (default 2×heartbeat)")
	poll := flag.Duration("poll", 50*time.Millisecond, "idle scheduler poll cadence")
	attempts := flag.Int("attempts", 3, "attempts per cell before it is marked failed")
	insts := flag.Uint64("insts", 2_000_000, "default committed-instruction budget for sweeps that omit one")
	tenant := flag.String("tenant", "fleet", "X-Rvp-Tenant stamped on every dispatch (empty = the workers' default tenant)")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(strings.TrimSpace(*logLevel))); err != nil {
		fmt.Fprintf(os.Stderr, "rvpcoord: -log-level %q: %v\n", *logLevel, err)
		return 2
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler = slog.NewTextHandler(os.Stderr, hopts)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	}
	logger := slog.New(handler).With("service", "rvpcoord")

	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	coord, err := fleet.Open(fleet.Config{
		StateDir:     *state,
		Workers:      urls,
		Lease:        *lease,
		Heartbeat:    *heartbeat,
		StealAge:     *stealAge,
		Poll:         *poll,
		CellAttempts: *attempts,
		DefaultInsts: *insts,
		Tenant:       *tenant,
		Logger:       logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpcoord: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rvpcoord: listen: %v\n", err)
		coord.Stop()
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "rvpcoord: addr-file: %v\n", err)
			coord.Stop()
			return 1
		}
	}
	logger.Info("listening", "addr", bound, "state", *state, "workers", urls, "lease", *lease)

	httpSrv := &http.Server{Handler: fleet.Handler(coord)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := shutdown.Context(context.Background())
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received; stopping dispatch")
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "rvpcoord: serve: %v\n", err)
		coord.Stop()
		return 1
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	<-serveErr
	coord.Stop()
	logger.Info("stopped; ledger holds all finished cells", "state", *state)
	return 0
}
