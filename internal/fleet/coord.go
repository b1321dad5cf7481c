package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/server"
	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Config sizes the coordinator. Zero values take the documented
// defaults.
type Config struct {
	// StateDir holds the cell ledger (required: it is what makes an
	// accepted sweep survive coordinator restarts).
	StateDir string
	// Workers are the initial rvpd base URLs; more can register later
	// via AddWorker or POST /v1/workers.
	Workers []string
	// Lease is how long a worker may hold a cell between heartbeat
	// renewals before the cell is reassigned (default 10s).
	Lease time.Duration
	// Heartbeat is the lease-renewal long-poll window: each status poll
	// asks the worker to hold its answer up to Heartbeat (or until the
	// job is terminal), and every answer renews the lease. Polls also
	// start at least Heartbeat apart, so a worker that ignores the wait
	// is not hammered (default Lease/4).
	Heartbeat time.Duration
	// Poll is the idle scheduler's retry cadence when no cell is ready
	// (default 50ms).
	Poll time.Duration
	// StealAge is the minimum age of a lease before an idle worker may
	// steal it (default 2×Heartbeat).
	StealAge time.Duration
	// CellAttempts bounds how many times a cell that fails on a worker
	// (a real job failure, not an infrastructure error) is retried
	// before the cell is marked failed (default 3).
	CellAttempts int
	// DefaultInsts is the per-cell budget for sweeps that omit one
	// (default 2M).
	DefaultInsts uint64
	// Registry receives fleet metrics (fresh if nil).
	Registry *obs.Registry
	// Logger receives structured lifecycle logs; nil discards them.
	Logger *slog.Logger
	// FS is the filesystem seam the cell ledger goes through. Nil means
	// the real filesystem; tests inject vfs.Mem/vfs.Fault to simulate
	// hostile storage.
	FS vfs.FS
	// StorageProbeEvery is how often a storage-degraded coordinator
	// probes the disk for recovery (default 2s).
	StorageProbeEvery time.Duration
	// Deprecated: ignored; deleted with the next benchmark change.
	Tenant string
}

func (c *Config) setDefaults() error {
	if c.StateDir == "" {
		return simerr.Newf("fleet", "Config.StateDir is required: %v", simerr.ErrConfig)
	}
	if c.Lease <= 0 {
		c.Lease = 10 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.Lease / 4
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.StealAge <= 0 {
		c.StealAge = 2 * c.Heartbeat
	}
	if c.CellAttempts <= 0 {
		c.CellAttempts = 3
	}
	if c.DefaultInsts == 0 {
		c.DefaultInsts = 2_000_000
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.StorageProbeEvery <= 0 {
		c.StorageProbeEvery = 2 * time.Second
	}
	return nil
}

// Every dispatch makes at most submitAttempts submission attempts,
// backing off per dispatchBackoff: capped at 2s, so retries stay well
// inside a lease.
const submitAttempts = 5

var dispatchBackoff = client.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2}

// ErrStorageDegraded is returned by SubmitSweep while the coordinator
// cannot persist ledger appends: the HTTP layer maps it to 503 +
// Retry-After so clients back off instead of losing sweeps.
var ErrStorageDegraded = errors.New("fleet: storage degraded, not accepting sweeps")

// Cell states inside the coordinator.
const (
	cellReady  = "ready"
	cellLeased = "leased"
	cellDone   = "done"
	cellFailed = "failed"
)

// cellState is one cell's scheduling state. tok is the lease token:
// every (re)assignment increments it, so a worker whose lease was
// expired or stolen fails its next renewal instead of racing the new
// owner. Results, by contrast, are welcome from anyone — they are
// deterministic — so complete() keys on cell identity, not tokens.
type cellState struct {
	sweepID string
	id      string
	spec    Cell

	state    string
	worker   string
	tok      uint64
	started  time.Time // current lease start (steal-age clock)
	expiry   time.Time
	attempts int
}

// sweepState tracks one sweep end to end.
type sweepState struct {
	id             string
	spec           SweepSpec
	cells          map[string]*cellState
	ready          []string // cell IDs; stale entries skipped on pop
	total          int
	doneN, failedN int
	done           map[string]pipeline.Stats
	failed         map[string]string
	tableText      string // cached render once complete
}

func (sw *sweepState) complete() bool { return sw.doneN+sw.failedN == sw.total }

// workerState is one registered rvpd.
type workerState struct {
	url      string
	cl       *client.Client
	live     bool
	draining bool
	leased   int
	doneN    int64
}

// WorkerStatus is the wire view of one worker.
type WorkerStatus struct {
	URL      string `json:"url"`
	Live     bool   `json:"live"`
	Draining bool   `json:"draining"`
	Leased   int    `json:"leased"`
	Done     int64  `json:"done"`
}

// SweepStatus is the wire view of one sweep.
type SweepStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"` // running, done, partial
	Total  int    `json:"total"`
	Ready  int    `json:"ready"`
	Leased int    `json:"leased"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	// Steals and LeaseExpiries are this coordinator process's counters
	// (they also appear in /metrics).
	Steals        int64 `json:"steals"`
	LeaseExpiries int64 `json:"lease_expiries"`
	// TableText is the merged result table, present once every cell is
	// terminal.
	TableText string         `json:"table_text,omitempty"`
	Workers   []WorkerStatus `json:"workers,omitempty"`
}

// Terminal reports whether the sweep has finished (all cells terminal).
func (s SweepStatus) Terminal() bool { return s.State != "running" }

// Coordinator shards sweeps into cells and drives them across the
// worker fleet. See the package comment for the robustness contract.
type Coordinator struct {
	cfg    Config
	reg    *obs.Registry
	log    *slog.Logger
	ledger *Ledger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup

	mu      sync.Mutex
	sweeps  map[string]*sweepState
	order   []string
	workers map[string]*workerState
	worder  []string
	leases  map[string]*cellState // sweepID+"/"+cellID -> leased cells only

	// storageDegraded trips when a ledger append fails: the coordinator
	// stops admitting sweeps (503 + Retry-After, /readyz not ready) and
	// granting leases, instead of crashing, until its probe, every
	// StorageProbeEvery, sees the disk recover. Admitted cells stay
	// ready, and leases already granted run on.
	storageDegraded *wal.Guard

	mLeases, mExpiries, mSteals     *obs.Counter
	mCellsDone, mCellsFailed        *obs.Counter
	mCellRetries, mDispatchErrors   *obs.Counter
	mShedStorage                    *obs.Counter
	mDigestVerified, mDigestRejects *obs.Counter
	mSpecRejects                    *obs.Counter
	gWorkersLive, gWorkersTotal     *obs.Gauge
	gReady, gLeased, gDone, gFailed *obs.Gauge
	gStorageDegraded                *obs.Gauge
}

// Open opens the state directory, replays the cell ledger — finished
// cells stay finished, everything else is ready — and starts one
// dispatch loop per configured worker plus the lease janitor. Counters
// start at zero in every process.
func Open(cfg Config) (*Coordinator, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ledger, rp, err := OpenLedgerFS(LedgerPath(cfg.StateDir), cfg.FS, wal.NewMetrics(cfg.Registry))
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     cfg.Registry,
		log:     cfg.Logger,
		ledger:  ledger,
		stop:    make(chan struct{}),
		sweeps:  map[string]*sweepState{},
		workers: map[string]*workerState{},
		leases:  map[string]*cellState{},
	}
	c.baseCtx, c.baseCancel = context.WithCancel(context.Background())
	c.initMetrics()
	c.storageDegraded = wal.NewGuard(ledger.Probe, cfg.StorageProbeEvery, c.gStorageDegraded, c.log)
	if ledger.Truncated > 0 {
		c.log.Warn("ledger: dropped damaged tail records", "count", ledger.Truncated)
	}

	// Replay: rebuild every sweep from its outcomes. A lease held by the
	// dead coordinator was never written down, so its cell is simply
	// ready, exactly like a squashed speculative value. Replayed
	// terminals stay on the ready queue; takeCell skips them.
	for _, sid := range rp.Order {
		sw := c.newSweepLocked(sid, rp.Sweeps[sid])
		for id, st := range rp.Done[sid] {
			if cell, ok := sw.cells[id]; ok {
				cell.state = cellDone
				sw.done[id] = st
				sw.doneN++
			}
		}
		for id, why := range rp.Failed[sid] {
			if cell, ok := sw.cells[id]; ok {
				cell.state = cellFailed
				sw.failed[id] = why
				sw.failedN++
			}
		}
		c.log.Info("sweep recovered", "sweep", sid, "done", sw.doneN,
			"failed", sw.failedN, "remaining", sw.total-sw.doneN-sw.failedN)
	}
	c.setGauges()

	c.wg.Add(2)
	go c.janitor()
	go func() {
		defer c.wg.Done()
		c.storageDegraded.Run(c.stop)
	}()
	for _, url := range cfg.Workers {
		if err := c.AddWorker(url); err != nil {
			c.Stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *Coordinator) initMetrics() {
	c.mLeases = c.reg.Counter("fleet_leases_total", "cell leases granted to workers")
	c.mExpiries = c.reg.Counter("fleet_lease_expiries_total", "leases expired and returned to the ready set")
	c.mSteals = c.reg.Counter("fleet_steals_total", "straggler leases stolen by idle workers")
	c.mCellsDone = c.reg.Counter("fleet_cells_done_total", "cells committed to the ledger as done")
	c.mCellsFailed = c.reg.Counter("fleet_cells_failed_total", "cells committed to the ledger as failed")
	c.mCellRetries = c.reg.Counter("fleet_cell_retries_total", "failed cell attempts returned to the ready set")
	c.mDispatchErrors = c.reg.Counter("fleet_dispatch_errors_total", "dispatches abandoned on transport/submission errors")
	c.mShedStorage = c.reg.Counter("fleet_shed_storage_total", "sweep submissions shed while storage-degraded (503)")
	c.mDigestVerified = c.reg.Counter("fleet_digest_verified_total", "cell results whose envelope digest verified before merge")
	c.mDigestRejects = c.reg.Counter("fleet_digest_rejects_total", "cell results rejected for an envelope digest mismatch (corrupted in transit)")
	c.mSpecRejects = c.reg.Counter("fleet_spec_rejects_total", "dispatches released because the worker echoed a different spec digest (request corrupted in transit)")
	c.gWorkersLive = c.reg.Gauge("fleet_workers_live", "registered workers currently answering /readyz")
	c.gWorkersTotal = c.reg.Gauge("fleet_workers_total", "registered workers")
	c.gReady = c.reg.Gauge("fleet_cells_ready", "cells waiting for a worker")
	c.gLeased = c.reg.Gauge("fleet_cells_leased", "cells currently leased to workers")
	c.gDone = c.reg.Gauge("fleet_cells_done", "cells finished successfully")
	c.gFailed = c.reg.Gauge("fleet_cells_failed", "cells terminally failed")
	c.gStorageDegraded = c.reg.Gauge("fleet_storage_degraded", "1 while ledger appends are failing and sweep admission is shed")
}

// StorageDegraded reports whether the coordinator is currently shedding
// sweep admission because its ledger cannot take durable appends.
func (c *Coordinator) StorageDegraded() bool { return c.storageDegraded.Load() }

// newSweepLocked builds the sweep state with every cell ready, in
// digest order. Caller holds c.mu (or is single-threaded in Open).
func (c *Coordinator) newSweepLocked(id string, spec SweepSpec) *sweepState {
	cells := spec.Cells()
	sw := &sweepState{
		id:     id,
		spec:   spec,
		cells:  make(map[string]*cellState, len(cells)),
		total:  len(cells),
		done:   map[string]pipeline.Stats{},
		failed: map[string]string{},
	}
	for _, cell := range cells {
		sw.cells[cell.ID] = &cellState{sweepID: id, id: cell.ID, spec: cell, state: cellReady}
		sw.ready = append(sw.ready, cell.ID)
	}
	c.sweeps[id] = sw
	c.order = append(c.order, id)
	return sw
}

// setGauges publishes the cell and worker gauges from the counts the
// coordinator keeps: every cell is done, failed, leased (in c.leases) or
// ready. Caller holds c.mu.
func (c *Coordinator) setGauges() {
	var total, done, failed, live int
	for _, sw := range c.sweeps {
		total += sw.total
		done += sw.doneN
		failed += sw.failedN
	}
	for _, w := range c.workers {
		if w.live {
			live++
		}
	}
	c.gReady.Set(int64(total - done - failed - len(c.leases)))
	c.gLeased.Set(int64(len(c.leases)))
	c.gDone.Set(int64(done))
	c.gFailed.Set(int64(failed))
	c.gWorkersLive.Set(int64(live))
	c.gWorkersTotal.Set(int64(len(c.workers)))
}

// AddWorker registers an rvpd base URL and starts its dispatch loop.
// Registering an already-known URL is a no-op.
func (c *Coordinator) AddWorker(url string) error {
	if url == "" {
		return simerr.Newf("fleet", "empty worker URL: %v", simerr.ErrConfig)
	}
	c.mu.Lock()
	if _, ok := c.workers[url]; ok {
		c.mu.Unlock()
		return nil
	}
	// Every worker call is bounded by the lease, so one hung call can
	// never outlive the lease it renews.
	w := &workerState{
		url: url,
		cl: client.New(url,
			client.WithBackoff(dispatchBackoff),
			client.WithMaxAttempts(submitAttempts),
			client.WithMaxElapsed(c.cfg.Lease),
			client.WithHTTPClient(&http.Client{Timeout: c.cfg.Lease}),
			client.WithLogger(c.log.With("worker", url))),
	}
	c.workers[url] = w
	c.worder = append(c.worder, url)
	c.setGauges()
	c.mu.Unlock()
	c.log.Info("worker registered", "worker", url)
	c.wg.Add(1)
	go c.workerLoop(w)
	return nil
}

// SubmitSweep admits one sweep. Submission is idempotent by sweep ID
// (the digest of the normalized spec): resubmitting the same spec joins
// the existing sweep instead of forking a duplicate.
func (c *Coordinator) SubmitSweep(spec SweepSpec) (SweepStatus, error) {
	spec.Normalize(c.cfg.DefaultInsts)
	if err := spec.Validate(); err != nil {
		return SweepStatus{}, err
	}
	id := spec.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sweeps[id]; !ok {
		// Admission requires a durable ledger; resubmitting a known
		// sweep is still answered from memory while degraded.
		if c.storageDegraded.Load() {
			c.mShedStorage.Inc()
			return SweepStatus{}, ErrStorageDegraded
		}
		// Write-ahead: the sweep is durable before it is acknowledged.
		sp := spec
		if err := c.ledger.Append(LedgerRecord{Kind: recSweep, Sweep: id, Spec: &sp}); err != nil {
			c.storageDegraded.Trip(err)
			c.mShedStorage.Inc()
			return SweepStatus{}, fmt.Errorf("%w: %w", ErrStorageDegraded, err)
		}
		sw := c.newSweepLocked(id, spec)
		c.setGauges()
		c.log.Info("sweep accepted", "sweep", id, "cells", sw.total)
	}
	return c.statusLocked(id), nil
}

// Status reports one sweep (false when unknown).
func (c *Coordinator) Status(id string) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sweeps[id]; !ok {
		return SweepStatus{}, false
	}
	return c.statusLocked(id), true
}

// Sweeps lists known sweep IDs in admission order.
func (c *Coordinator) Sweeps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

func (c *Coordinator) statusLocked(id string) SweepStatus {
	sw := c.sweeps[id]
	st := SweepStatus{
		ID: id, State: "running", Total: sw.total,
		Done: sw.doneN, Failed: sw.failedN,
		Steals:        c.mSteals.Value(),
		LeaseExpiries: c.mExpiries.Value(),
	}
	for _, cell := range c.leases {
		if cell.sweepID == id {
			st.Leased++
		}
	}
	st.Ready = sw.total - sw.doneN - sw.failedN - st.Leased
	if sw.complete() {
		if sw.failedN == 0 {
			st.State = "done"
		} else {
			st.State = "partial"
		}
		if sw.tableText == "" {
			sw.tableText = MergeTable(sw.spec, sw.done, sw.failed).String()
		}
		st.TableText = sw.tableText
	}
	for _, url := range c.worder {
		w := c.workers[url]
		st.Workers = append(st.Workers, WorkerStatus{
			URL: w.url, Live: w.live, Draining: w.draining, Leased: w.leased, Done: w.doneN,
		})
	}
	return st
}

// Registry returns the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Stop halts dispatching and the janitor, cancels in-flight polling,
// and closes the ledger. Leased cells are simply abandoned: they were
// never committed, so a later Open (or another coordinator) re-runs
// them from ready — the ledger already holds everything that finished.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.baseCancel()
	})
	c.wg.Wait()
	if err := c.ledger.Close(); err != nil {
		c.cfg.Logger.Warn("closing ledger", "error", err)
	}
}

// leaseRef is a worker loop's claim on one cell. The token pins the
// exact lease generation: state mutations check it, result commits do
// not (results are deterministic and welcome from stale owners).
type leaseRef struct {
	sweepID, cellID string
	tok             uint64
	spec            Cell
	key             string
}

// janitor expires overdue leases: the cell goes back to the ready set,
// the token bumps so the stale owner's renewals fail, and the expiry is
// counted. This is the squash path — losing a worker mid-cell must never
// lose the cell.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.expireOverdue(time.Now())
		}
	}
}

func (c *Coordinator) expireOverdue(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cell := range c.leases {
		if now.Before(cell.expiry) {
			continue
		}
		c.log.Warn("lease expired; cell returns to ready", "sweep", cell.sweepID,
			"cell", cell.id, "worker", cell.worker)
		c.unleaseLocked(cell)
		c.requeueLocked(cell)
		c.mExpiries.Inc()
	}
	c.setGauges()
}

// workerLoop drives one worker: probe readiness, take (or steal) a
// cell, run it to a terminal state, repeat.
func (c *Coordinator) workerLoop(w *workerState) {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		ready := c.probe(w)
		if !ready {
			if !c.sleep(c.cfg.Heartbeat) {
				return
			}
			continue
		}
		ref, ok := c.takeCell(w)
		if !ok {
			if !c.sleep(c.cfg.Poll) {
				return
			}
			continue
		}
		c.runCell(w, ref)
	}
}

// sleep waits d or until Stop; false means stopping.
func (c *Coordinator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}

// readyzBody is the slice of rvpd's /readyz payload the coordinator
// reads.
type readyzBody struct {
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
}

// probe asks the worker's /readyz whether it should receive work. A
// draining worker (SIGTERM in progress) answers 503 with Draining:true
// and is deliberately left alone: its in-flight jobs will requeue on
// its own state dir, and this coordinator's lease expiry
// re-runs the cell elsewhere.
func (c *Coordinator) probe(w *workerState) bool {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.Lease)
	defer cancel()
	body, err := w.cl.CheckEndpoint(ctx, "/readyz")
	var rb readyzBody
	parsed := json.Unmarshal([]byte(body), &rb) == nil
	live := err == nil && parsed && rb.Ready
	draining := parsed && rb.Draining

	c.mu.Lock()
	changed := w.live != live || w.draining != draining
	w.live, w.draining = live, draining
	if changed {
		c.setGauges()
	}
	c.mu.Unlock()
	if changed {
		c.log.Info("worker state", "worker", w.url, "live", live, "draining", draining)
	}
	return live
}

// takeCell pops the next ready cell in admission-then-digest order, or
// — when nothing is ready but the fleet is not finished — steals the
// oldest sufficiently-aged lease from another worker so a straggler
// cannot stall the tail. Both paths grant a fresh lease to w. While
// storage is degraded it grants nothing: the ledger could not record
// the result.
func (c *Coordinator) takeCell(w *workerState) (leaseRef, bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.storageDegraded.Load() {
		return leaseRef{}, false
	}
	for _, sid := range c.order {
		sw := c.sweeps[sid]
		for len(sw.ready) > 0 {
			cell := sw.cells[sw.ready[0]]
			sw.ready = sw.ready[1:]
			if cell.state != cellReady {
				continue // stale queue entry (finished while queued, or on replay)
			}
			c.mLeases.Inc()
			return c.leaseLocked(sw, cell, w, now), true
		}
	}
	// Steal: oldest lease past StealAge held by someone else, cell-ID
	// tie-break for determinism under map iteration.
	var victim *cellState
	for _, cell := range c.leases {
		if cell.worker == w.url || now.Sub(cell.started) < c.cfg.StealAge {
			continue
		}
		if victim == nil || cell.started.Before(victim.started) ||
			(cell.started.Equal(victim.started) && cell.id < victim.id) {
			victim = cell
		}
	}
	if victim == nil {
		return leaseRef{}, false
	}
	c.log.Info("lease stolen from straggler", "sweep", victim.sweepID,
		"cell", victim.id, "from", victim.worker, "to", w.url)
	c.unleaseLocked(victim)
	c.mSteals.Inc()
	return c.leaseLocked(c.sweeps[victim.sweepID], victim, w, now), true
}

// leaseLocked grants w a lease on cell, which is ready or has just been
// unleased. Caller holds c.mu.
func (c *Coordinator) leaseLocked(sw *sweepState, cell *cellState, w *workerState, now time.Time) leaseRef {
	cell.state = cellLeased
	cell.worker = w.url
	cell.tok++
	cell.started = now
	cell.expiry = now.Add(c.cfg.Lease)
	c.leases[sw.id+"/"+cell.id] = cell
	w.leased++
	c.setGauges()
	// The idempotency key carries the lease token: retries WITHIN one
	// lease generation dedupe on the worker, while a new generation
	// submits fresh — so a job poisoned by request corruption under the
	// old key can never wedge the cell.
	return leaseRef{
		sweepID: sw.id, cellID: cell.id, tok: cell.tok, spec: cell.spec,
		key: fmt.Sprintf("fl-%s-%s-t%d", sw.id, cell.id, cell.tok),
	}
}

// unleaseLocked ends cell's lease: its worker frees the slot and the
// token bumps, so the old owner's renewals fail. Caller holds c.mu and
// cell is leased.
func (c *Coordinator) unleaseLocked(cell *cellState) {
	if w := c.workers[cell.worker]; w != nil {
		w.leased--
	}
	delete(c.leases, cell.sweepID+"/"+cell.id)
	cell.worker = ""
	cell.tok++
}

// requeueLocked puts cell back on its sweep's ready queue. Caller holds
// c.mu.
func (c *Coordinator) requeueLocked(cell *cellState) {
	cell.state = cellReady
	sw := c.sweeps[cell.sweepID]
	sw.ready = append(sw.ready, cell.id)
}

// renew extends the lease if ref still owns it.
func (c *Coordinator) renew(ref leaseRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := c.leases[ref.sweepID+"/"+ref.cellID]
	if cell == nil || cell.tok != ref.tok {
		return false
	}
	cell.expiry = time.Now().Add(c.cfg.Lease)
	return true
}

// stillMine reports whether ref's lease generation is still current.
func (c *Coordinator) stillMine(ref leaseRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := c.leases[ref.sweepID+"/"+ref.cellID]
	return cell != nil && cell.tok == ref.tok
}

// runCell dispatches one leased cell to w and long-polls it to a
// terminal state. Each poll asks the worker to hold its answer up to
// Heartbeat, so a finished cell is seen as soon as its result is
// durable; every successful answer is the heartbeat that renews the
// lease. When renewal fails (expired or stolen) the loop keeps polling
// its own job without renewing, until the cell is done or failed or a
// poll fails: a success still commits (results are deterministic, first
// writer wins), while a stale owner never fails or renews the cell.
// Abandoning the job instead would leave this worker idle to steal the
// cell back under a fresh key that queues behind the abandoned job, so
// a cell longer than StealAge would change hands forever.
func (c *Coordinator) runCell(w *workerState, ref leaseRef) {
	js, err := w.cl.Submit(c.baseCtx, ref.spec.Spec, ref.key)
	if err != nil {
		c.mDispatchErrors.Inc()
		c.log.Warn("dispatch failed", "worker", w.url, "cell", ref.cellID, "error", err)
		c.release(ref)
		return
	}
	// The cell ID is the normalized spec digest, and the worker echoes
	// its normalized spec back: a mismatch means the request (or the
	// echo) was corrupted in transit, and polling this job could merge
	// stats for a job we never asked for. Release and re-dispatch — the
	// idempotency key is salted with the lease token, so the next lease
	// generation submits the clean spec under a fresh key instead of
	// rejoining the corrupted job.
	if js.Spec.Digest() != ref.cellID {
		c.mSpecRejects.Inc()
		c.mDispatchErrors.Inc()
		c.log.Warn("dispatch echoed a different spec digest; releasing cell",
			"worker", w.url, "cell", ref.cellID, "echoed", js.Spec.Digest())
		c.release(ref)
		return
	}
	// The wait stays inside the per-call timeout (the lease), so a
	// long-poll is never cut by the coordinator's own client.
	wait := min(c.cfg.Heartbeat, c.cfg.Lease/2)
	// next is the pacing floor: a poll starts no earlier than Heartbeat
	// after the previous one began, so a worker that ignores the wait (an
	// older rvpd) or keeps failing the digest check is not spun on.
	var next time.Time
	for {
		if !c.sleep(time.Until(next)) {
			return
		}
		next = time.Now().Add(c.cfg.Heartbeat)
		st, err := w.cl.StatusWait(c.baseCtx, js.ID, wait)
		if err != nil {
			// The janitor owns expiry; this loop backs off and then
			// checks that it still owns the lease before polling again,
			// so a stale owner never commits after its lease expired.
			if !c.sleep(c.cfg.Heartbeat) || !c.stillMine(ref) {
				return
			}
			continue
		}
		mine := c.renew(ref)
		if st.Terminal() {
			if st.State == server.StateSucceeded && st.Result != nil && st.Result.Stats != nil {
				if !st.Result.Verify() {
					// The worker sealed this result before persisting it, so
					// a digest mismatch means the envelope was corrupted in
					// transit. Never merge it; re-poll for a clean copy.
					c.mDigestRejects.Inc()
					c.log.Warn("cell result digest mismatch; discarding poll",
						"worker", w.url, "cell", ref.cellID, "digest", st.Result.Digest)
					if !mine {
						return
					}
					continue
				}
				c.mDigestVerified.Inc()
				c.complete(ref, w, *st.Result.Stats)
			} else if mine {
				msg := "job failed"
				if st.Error != nil {
					msg = st.Error.Message
				}
				c.fail(ref, msg)
			}
			return
		}
		if !mine && c.settled(ref) {
			return
		}
	}
}

// settled reports whether ref's cell is done or failed.
func (c *Coordinator) settled(ref leaseRef) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	state := c.sweeps[ref.sweepID].cells[ref.cellID].state
	return state == cellDone || state == cellFailed
}

// release returns a cell to ready after an infrastructure failure
// (submission never landed). Infrastructure errors do not consume cell
// attempts — the cell did nothing wrong.
func (c *Coordinator) release(ref leaseRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cell := c.leases[ref.sweepID+"/"+ref.cellID]
	if cell == nil || cell.tok != ref.tok {
		return
	}
	c.unleaseLocked(cell)
	c.requeueLocked(cell)
	c.setGauges()
}

// complete commits one cell result. First writer wins; every later
// completion of the same cell — stale lease, steal race, idempotent
// re-execution — is a harmless no-op, which is exactly why the merge
// can never double-count. The ledger append happens before any state
// change (write-ahead), so a crash between the two re-derives the same
// outcome on replay.
func (c *Coordinator) complete(ref leaseRef, w *workerState, st pipeline.Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.sweeps[ref.sweepID]
	cell := sw.cells[ref.cellID]
	if cell.state == cellDone || cell.state == cellFailed {
		return
	}
	stc := st
	if err := c.ledger.Append(LedgerRecord{
		Kind: recDone, Sweep: ref.sweepID, Cell: ref.cellID, Worker: w.url, Stats: &stc,
	}); err != nil {
		c.log.Error("ledgering cell result failed", "cell", ref.cellID, "error", err)
		c.storageDegraded.Trip(err)
		return // lease expiry will re-run the cell; never commit undurable results
	}
	if cell.state == cellLeased {
		c.unleaseLocked(cell)
	}
	cell.state = cellDone
	cell.worker = w.url
	sw.done[ref.cellID] = st
	sw.doneN++
	w.doneN++
	c.mCellsDone.Inc()
	c.setGauges()
	c.log.Info("cell done", "sweep", ref.sweepID, "cell", ref.cellID,
		"worker", w.url, "done", sw.doneN, "total", sw.total)
}

// fail records one failed attempt; the cell retries until CellAttempts,
// then is terminally failed (and footnoted by the merge).
func (c *Coordinator) fail(ref leaseRef, reason string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.sweeps[ref.sweepID]
	cell := sw.cells[ref.cellID]
	if cell.state != cellLeased || cell.tok != ref.tok {
		return
	}
	c.unleaseLocked(cell)
	cell.attempts++
	if cell.attempts < c.cfg.CellAttempts {
		c.requeueLocked(cell)
		c.mCellRetries.Inc()
		c.log.Warn("cell attempt failed; retrying", "sweep", ref.sweepID,
			"cell", ref.cellID, "attempt", cell.attempts, "reason", reason)
		c.setGauges()
		return
	}
	if err := c.ledger.Append(LedgerRecord{
		Kind: recFailed, Sweep: ref.sweepID, Cell: ref.cellID, Reason: reason,
	}); err != nil {
		c.log.Error("ledgering cell failure failed", "cell", ref.cellID, "error", err)
		c.storageDegraded.Trip(err)
		c.requeueLocked(cell) // keep it schedulable rather than losing it
		c.setGauges()
		return
	}
	cell.state = cellFailed
	sw.failed[ref.cellID] = reason
	sw.failedN++
	c.mCellsFailed.Inc()
	c.log.Error("cell failed terminally", "sweep", ref.sweepID, "cell", ref.cellID, "reason", reason)
	c.setGauges()
}
