package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/fleet"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
)

// fleetSweep is one in-process coordinator at rvpcoord's defaults with
// two in-process rvpd workers of one slot each, all on loopback. Each
// cell simulates in tens of milliseconds but is only seen finished at
// the coordinator's next heartbeat poll, so the sweep is dispatch-bound:
// a faster simulator must not move it, a dispatch change should.
type fleetSweep struct {
	o       Options
	dir     string
	workers []*daemon
	coord   *fleet.Coordinator
	hs      *http.Server
	served  chan error
	cc      *fleet.CoordClient
}

// fleetWorkers is how many rvpd workers (of one slot each) the sweep uses.
const fleetWorkers = 2

func setupFleet(_ context.Context, o Options) (session, error) {
	dir, err := os.MkdirTemp(o.Dir, "fleet-")
	if err != nil {
		return nil, err
	}
	s := &fleetSweep{o: o, dir: dir}
	if err := s.start(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *fleetSweep) start() error {
	var urls []string
	for i := 0; i < fleetWorkers; i++ {
		d, err := startDaemon(rvpdConfig(filepath.Join(s.dir, fmt.Sprintf("worker%d", i)), 1))
		if err != nil {
			return err
		}
		s.workers = append(s.workers, d)
		urls = append(urls, d.url)
	}
	// rvpcoord's flag defaults: 10s leases renewed every lease/4, steal
	// age 2x heartbeat, 50ms idle poll, 3 attempts, tenant "fleet".
	coord, err := fleet.Open(fleet.Config{
		StateDir:     filepath.Join(s.dir, "coord"),
		Workers:      urls,
		Lease:        10 * time.Second,
		Poll:         50 * time.Millisecond,
		CellAttempts: 3,
		DefaultInsts: 2_000_000,
		Tenant:       "fleet",
		Logger:       discardLogger("rvpcoord"),
	})
	if err != nil {
		return err
	}
	s.coord = coord
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: fleet.Handler(coord)}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.cc = fleet.NewCoordClient("http://" + ln.Addr().String())
	return nil
}

func (s *fleetSweep) close() error {
	var errs []error
	if s.hs != nil {
		errs = append(errs, s.hs.Close())
		<-s.served
	}
	if s.coord != nil {
		s.coord.Stop()
	}
	for _, d := range s.workers {
		errs = append(errs, d.stop())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// spec is the sweep: the budget's workloads x {none, rvp}, axes in
// seed-permuted order (the coordinator schedules cells in digest order
// whatever the axis order; the table's columns follow it).
func (s *fleetSweep) spec() fleet.SweepSpec {
	rng := rand.New(rand.NewSource(s.o.Seed))
	wls := append([]string(nil), s.o.Budget.FleetWorkloads...)
	rng.Shuffle(len(wls), func(i, j int) { wls[i], wls[j] = wls[j], wls[i] })
	preds := []string{"none", "rvp"}
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	return fleet.SweepSpec{Workloads: wls, Predictors: preds, Insts: s.o.Budget.FleetInsts}
}

// check counts the sweep's cells plus its merged table as attempted, and
// fails failed cells and a table that is not byte-identical to
// fleet.Reference, the in-process single-node ground truth.
func (s *fleetSweep) check(ctx context.Context, spec fleet.SweepSpec, final fleet.SweepStatus, rep *Report) error {
	rep.Attempted += final.Total + 1
	if final.Failed > 0 || final.Done != final.Total {
		rep.Failed += final.Total - final.Done
		rep.note("fleet: %d of %d cells failed", final.Total-final.Done, final.Total)
	}
	ref, err := fleet.Reference(ctx, spec, 0)
	if err != nil {
		return fmt.Errorf("fleet: reference: %w", err)
	}
	if final.TableText != ref.String() {
		rep.fail("fleet: merged table differs from fleet.Reference")
	}
	return nil
}

// run submits the sweep and awaits it with CoordClient.Wait at a 20ms
// poll. minsts_per_s is cells x budget over the sweep's wall time; the
// operation is the sweep, so both latency metrics are its wall time.
func (s *fleetSweep) run(ctx context.Context, rep *Report) error {
	spec := s.spec()
	alloc0 := totalAlloc()
	start := time.Now()
	st, err := s.cc.SubmitSweep(ctx, spec)
	if err != nil {
		return fmt.Errorf("fleet: submit: %w", err)
	}
	final, err := s.cc.Wait(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		return fmt.Errorf("fleet: wait: %w", err)
	}
	wall := time.Since(start)
	rep.measured(alloc0, 1)
	if err := s.check(ctx, spec, final, rep); err != nil {
		return err
	}
	rep.set("minsts_per_s", "Minst/s", float64(final.Done)*float64(s.o.Budget.FleetInsts)/wall.Seconds()/1e6, nil)
	rep.latencies([]float64{ms(wall)})
	return nil
}

// traced runs the same sweep polling CoordClient.Status every 20ms, so
// each worker's Done counter gives the interval between its completions,
// then replays the cells outside the fleet: a serial direct exp.RunJob per
// cell (the simulation work the fleet dispatched), MergeTable over those
// results, fleet.Reference, and the ledger's append called directly.
func (s *fleetSweep) traced(ctx context.Context, rep *Report) error {
	spec := s.spec()
	sp := s.o.Tracer.Start(obs.SpanContext{}, "fleet.sweep")
	start := time.Now()
	st, err := s.cc.SubmitSweep(ctx, spec)
	if err != nil {
		return fmt.Errorf("fleet: submit: %w", err)
	}
	lastDone := map[string]int64{}
	lastAt := map[string]time.Time{}
	var intervals []float64
	var final fleet.SweepStatus
	for {
		final, err = s.cc.Status(ctx, st.ID)
		now := time.Now()
		if err == nil {
			for _, w := range final.Workers {
				if w.Done > lastDone[w.URL] {
					prev, seen := lastAt[w.URL]
					if !seen {
						prev = start
					}
					intervals = append(intervals, ms(now.Sub(prev)))
					lastDone[w.URL], lastAt[w.URL] = w.Done, now
				}
			}
			if final.Terminal() {
				break
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	wall := time.Since(start)
	sp.End()
	if err := s.check(ctx, spec, final, rep); err != nil {
		return err
	}

	spec.Normalize(0)
	done := map[string]pipeline.Stats{}
	var busy time.Duration
	for _, c := range spec.Cells() {
		t := time.Now()
		res, err := exp.RunJob(ctx, c.Spec, exp.Options{})
		if err != nil {
			return fmt.Errorf("fleet: direct %s: %w", c.ID, err)
		}
		busy += time.Since(t)
		done[c.ID] = *res.Stats
	}
	t := time.Now()
	table := fleet.MergeTable(spec, done, map[string]string{})
	merge := time.Since(t)
	if table.String() != final.TableText {
		rep.fail("fleet: MergeTable over direct runs differs from the fleet's table")
	}
	t = time.Now()
	if _, err := fleet.Reference(ctx, spec, 0); err != nil {
		return err
	}
	reference := time.Since(t)

	snap := s.coord.Registry().Snapshot()
	leases := float64(snap.Counters["fleet_leases_total"])
	rep.set("fleet.busy_frac", "ratio", busy.Seconds()/(wall.Seconds()*fleetWorkers), nil)
	rep.set("fleet.done_interval_ms_p50", "ms", median(intervals), intervals)
	rep.set("fleet.reference_s", "s", reference.Seconds(), nil)
	rep.set("fleet.merge_ms", "ms", ms(merge), nil)
	rep.set("fleet.leases", "count", leases, nil)
	rep.set("fleet.steals", "count", float64(final.Steals), nil)
	rep.set("fleet.lease_expiries", "count", float64(final.LeaseExpiries), nil)
	rep.set("fleet.useful_frac", "ratio", float64(final.Done)/leases, nil)
	return s.ledgerAppends(spec, done, rep)
}

// ledgerAppends times the cell ledger's fsync'd append of a done record
// in a fresh ledger on the same filesystem.
func (s *fleetSweep) ledgerAppends(spec fleet.SweepSpec, done map[string]pipeline.Stats, rep *Report) error {
	l, _, err := fleet.OpenLedger(filepath.Join(s.dir, "append.ledger"))
	if err != nil {
		return err
	}
	cells := spec.Cells()
	st := done[cells[0].ID]
	appends, err := timeN(1000, 2*time.Second, func(i int) error {
		return l.Append(fleet.LedgerRecord{Kind: "done", Sweep: spec.ID(), Cell: cells[i%len(cells)].ID,
			Worker: s.workers[0].url, Stats: &st})
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fleet: ledger append: %w", err)
	}
	rep.set("fleet.ledger_append_us_p50", "us", median(appends), appends)
	rep.set("fleet.ledger_append_us_p99", "us", percentile(appends, 0.99), appends)
	return nil
}
