package server

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/faultinject"
	"rvpsim/internal/obs"
	"rvpsim/internal/server/shutdown"
	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// StateDir holds the job store and per-job simulation state
	// (required: it is what makes accepted jobs survive restarts).
	StateDir string
	// Workers is the fixed worker-pool size (default one per core).
	Workers int
	// QueueDepth is the admission limit on queued jobs (default 64).
	QueueDepth int
	// MaxWait sheds submissions when the p99 of recent queue waits
	// exceeds it (default 30s; 0 disables the wait-based signal).
	MaxWait time.Duration
	// JobTimeout bounds each job attempt (default 10m).
	JobTimeout time.Duration
	// DrainTimeout is how long a graceful drain lets in-flight jobs
	// finish before force-cancelling them into checkpoints (default 10s).
	DrainTimeout time.Duration
	// Deprecated: ignored; deleted with the next benchmark change.
	BreakerThreshold int
	// Deprecated: ignored; deleted with the next benchmark change.
	BreakerCooloff time.Duration
	// DefaultInsts is the per-run budget for specs that omit one
	// (default 2M).
	DefaultInsts uint64
	// CheckpointEvery is the in-flight checkpoint cadence in committed
	// instructions (default 200k; 0 disables mid-run checkpoints).
	CheckpointEvery uint64
	// WatchdogCycles arms the pipeline watchdog for every run (0 off).
	WatchdogCycles int
	// MaxBody bounds POST bodies; larger requests get 413 before any
	// decoding (default 1 MiB).
	MaxBody int64
	// Registry receives service and simulation metrics (fresh if nil).
	Registry *obs.Registry
	// Faults injects deterministic faults into jobs' simulation runs,
	// keyed by workload (chaos/soak testing).
	Faults map[string]faultinject.Config
	// Logger receives structured lifecycle logs (with job and trace
	// IDs); nil discards them.
	Logger *slog.Logger
	// ProgressEvery is the live-heartbeat cadence in committed
	// instructions (default 100k).
	ProgressEvery uint64
	// FS is the filesystem seam all durability I/O (job store, sweep
	// journals, checkpoints) goes through. Nil means the real
	// filesystem; tests inject vfs.Mem/vfs.Fault to simulate hostile
	// storage.
	FS vfs.FS
	// StorageProbeEvery is how often a storage-degraded daemon probes
	// the disk for recovery (default 2s).
	StorageProbeEvery time.Duration
	// Deprecated: ignored; deleted with the next benchmark change.
	TenantBurst int
	// BodyReadTimeout bounds how long a submission may take to deliver
	// its body, so slow-loris clients are cut with 408 instead of
	// holding connections open indefinitely (default 30s; <0 disables).
	BodyReadTimeout time.Duration
}

func (c *Config) setDefaults() error {
	if c.StateDir == "" {
		return simerr.Newf("server", "Config.StateDir is required: %v", simerr.ErrConfig)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxWait == 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.DefaultInsts == 0 {
		c.DefaultInsts = 2_000_000
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 100_000
	}
	if c.StorageProbeEvery <= 0 {
		c.StorageProbeEvery = 2 * time.Second
	}
	if c.BodyReadTimeout == 0 {
		c.BodyReadTimeout = 30 * time.Second
	}
	return nil
}

// maxFeeds bounds how many per-job event feeds the telemetry hub
// retains (terminal feeds are evicted oldest-first past this);
// flightRecorderSize is how many recent events each feed keeps for SSE
// replay and the failure dump; tracerCapacity bounds the daemon's
// retained spans.
const (
	maxFeeds           = 1024
	flightRecorderSize = 256
	tracerCapacity     = 4096
)

// Server is the simulation service: HTTP API, bounded queue, worker
// pool, and crash-safe job state.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	store *Store
	queue *queue
	log   *slog.Logger

	// tel and tracer are the observability layer: per-job event feeds
	// (SSE + flight recorder) and the daemon's span collector.
	tel    *telemetry
	tracer *obs.Tracer

	// baseCtx parents every job run; cancelling it is the drain
	// deadline's hammer that turns in-flight runs into checkpoints.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// stopPick tells workers to stop picking up new jobs.
	stopPick  chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	draining  atomic.Bool
	drainOnce sync.Once
	drainedOK bool

	// submitMu serializes admission so concurrent idempotent retries
	// cannot double-enqueue one logical job.
	submitMu sync.Mutex

	inflight atomic.Int64

	// storageDegraded trips when a durable append fails: the daemon
	// stops accepting work (503 + Retry-After, /readyz not ready) until
	// its probe sees the disk take durable writes again.
	storageDegraded *wal.Guard
	walMet          *wal.Metrics

	mSubmitted, mDeduped, mShedQueue *obs.Counter
	mShedDraining, mShedStorage      *obs.Counter
	mSucceeded, mFailed, mRequeued   *obs.Counter
	mBodyTimeouts, mDeadlineExpired  *obs.Counter
	gDepth, gInflight, gWorkers      *obs.Gauge
	gDraining, gStorageDegraded      *obs.Gauge
	hWaitMS, hRunMS                  *obs.Histogram
}

// New opens the state directory, replays the job store, re-enqueues
// every non-terminal job, and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	walMet := wal.NewMetrics(cfg.Registry)
	store, err := OpenStoreFS(StorePath(cfg.StateDir), cfg.FS, walMet)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Registry,
		store:    store,
		walMet:   walMet,
		log:      cfg.Logger,
		stopPick: make(chan struct{}),
		tel:      newTelemetry(flightRecorderSize, maxFeeds),
		tracer:   obs.NewTracer("rvpd", tracerCapacity),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.initMetrics()
	s.storageDegraded = wal.NewGuard(store.Probe, cfg.StorageProbeEvery, s.gStorageDegraded, s.log)
	if store.Truncated > 0 {
		s.log.Warn("jobstore: dropped damaged tail records", "count", store.Truncated)
	}

	// Recovery: everything non-terminal re-enters the queue, past
	// admission — these jobs were accepted by a previous daemon and the
	// acceptance contract survives the restart. Queue capacity is sized
	// so force() cannot block.
	pending := store.Pending()
	s.queue = newQueue(cfg.QueueDepth, cfg.QueueDepth+len(pending), cfg.MaxWait)
	for _, rec := range pending {
		if rec.State == StateRunning {
			// The previous daemon died mid-run; normalize the record so
			// status reads don't claim a dead daemon is running it.
			rec.State = StateQueued
			if err := store.Append(rec); err != nil {
				_ = store.Close() // already failing; surface the append error
				return nil, err
			}
		}
		var deadline time.Time
		if rec.DeadlineUS > 0 {
			deadline = time.UnixMicro(rec.DeadlineUS)
		}
		s.queue.force(&job{
			id: rec.ID, spec: rec.Spec, enqueued: time.Now(),
			tctx: obs.SpanContext{Trace: rec.TraceID}, deadline: deadline,
		})
		s.tel.publish(rec.ID, JobEvent{Type: EvQueued, Attempt: rec.Attempts})
		s.log.Info("recovered job", "job", rec.ID, "kind", rec.Spec.Kind, "trace", rec.TraceID)
	}
	s.gDepth.Set(int64(s.queue.depthNow()))
	s.gWorkers.Set(int64(cfg.Workers))

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.storageDegraded.Run(s.stopPick)
	}()
	return s, nil
}

func (s *Server) initMetrics() {
	s.mSubmitted = s.reg.Counter("srv_jobs_submitted_total", "jobs accepted into the queue")
	s.mDeduped = s.reg.Counter("srv_jobs_deduped_total", "submissions answered from an existing idempotency key")
	s.mShedQueue = s.reg.Counter("srv_shed_queue_total", "submissions shed by queue admission control (429)")
	s.mShedDraining = s.reg.Counter("srv_shed_draining_total", "submissions shed while draining (503)")
	s.mShedStorage = s.reg.Counter("srv_shed_storage_total", "submissions shed while storage-degraded (503)")
	s.mSucceeded = s.reg.Counter("srv_jobs_succeeded_total", "jobs that reached a successful terminal state")
	s.mFailed = s.reg.Counter("srv_jobs_failed_total", "jobs that reached a failed terminal state")
	s.mRequeued = s.reg.Counter("srv_jobs_requeued_total", "in-flight jobs checkpointed and requeued by a drain")
	s.mBodyTimeouts = s.reg.Counter("srv_body_timeouts_total", "submissions cut for exceeding the body-read timeout (slow-loris defense, 408)")
	s.mDeadlineExpired = s.reg.Counter("srv_deadline_expired_total", "jobs abandoned or refused because the caller's propagated deadline passed")
	s.gDepth = s.reg.Gauge("srv_queue_depth", "jobs currently queued")
	s.gInflight = s.reg.Gauge("srv_inflight_jobs", "jobs currently running on workers")
	s.gWorkers = s.reg.Gauge("srv_workers_total", "size of the worker pool (utilization = srv_inflight_jobs / this)")
	s.gDraining = s.reg.Gauge("srv_draining", "1 while the daemon is draining")
	s.gStorageDegraded = s.reg.Gauge("srv_storage_degraded", "1 while durable appends are failing and new work is shed")
	s.hWaitMS = s.reg.Histogram("srv_queue_wait_ms", "queue wait per job, milliseconds", obs.ExpBuckets(2, 2, 14))
	s.hRunMS = s.reg.Histogram("srv_job_run_ms", "run time per job attempt, milliseconds", obs.ExpBuckets(2, 2, 16))
}

// jobDir is where one job's crash-safe simulation state lives. It is
// keyed by the job ID, which is stable across restarts, and the
// journal/checkpoint keys inside are derived from the normalized spec,
// so a resumed job finds its own work.
func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "jobs", id)
}

// TraceIDHeader and ParentSpanHeader propagate trace identity from
// clients: a submission carrying them joins the client's trace, so one
// connected span tree covers both processes.
const (
	TraceIDHeader    = "X-Rvp-Trace-Id"
	ParentSpanHeader = "X-Rvp-Parent-Span"
)

// DeadlineHeader carries the caller's context deadline as unix
// microseconds: the server refuses work it cannot start in time and
// cancels runs whose caller has already given up, so orphaned work
// never occupies a worker.
const DeadlineHeader = "X-Rvp-Deadline"

// parseDeadline reads a DeadlineHeader value (unix microseconds; empty
// means no deadline).
func parseDeadline(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	us, err := strconv.ParseInt(v, 10, 64)
	if err != nil || us <= 0 {
		return time.Time{}, fmt.Errorf("invalid %s %q: want a positive unix-microsecond timestamp", DeadlineHeader, v)
	}
	return time.UnixMicro(us), nil
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.Handle("GET /metrics", obs.Handler(s.reg))
	return s.logRequests(mux)
}

// logRequests logs one debug line per request with its trace ID when
// the client sent one. Debug level keeps the serve path's default-off
// logging cost to one Enabled check.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			start := time.Now()
			next.ServeHTTP(w, r)
			s.log.Debug("request",
				"method", r.Method, "path", r.URL.Path,
				"trace", r.Header.Get(TraceIDHeader),
				"dur_ms", time.Since(start).Milliseconds())
			return
		}
		next.ServeHTTP(w, r)
	})
}

// clientSpanContext reads the caller's trace position from the request
// headers (zero when absent — spans then root a fresh trace).
func clientSpanContext(r *http.Request) obs.SpanContext {
	return obs.SpanContext{
		Trace: r.Header.Get(TraceIDHeader),
		Span:  r.Header.Get(ParentSpanHeader),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// reject writes a JSON error; a positive retryAfter also sets the
// Retry-After header (whole seconds, rounded up, at least 1).
func reject(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	body := apiError{Error: msg}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.RetryAfterSeconds = secs
	}
	writeJSON(w, code, body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	admitStart := time.Now()
	// Oversized bodies are refused before any read or decode.
	if r.ContentLength > s.cfg.MaxBody {
		reject(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body %d exceeds limit %d", r.ContentLength, s.cfg.MaxBody), 0)
		return
	}
	// Slow-loris defense: the whole body must arrive within the read
	// timeout. A trickling client costs one handler goroutine for at
	// most that long and never reaches admission, so it cannot occupy a
	// worker slot or the submit lock.
	rc := http.NewResponseController(w)
	if s.cfg.BodyReadTimeout > 0 {
		_ = rc.SetReadDeadline(time.Now().Add(s.cfg.BodyReadTimeout))
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	body, err := io.ReadAll(r.Body)
	if s.cfg.BodyReadTimeout > 0 && err == nil {
		// Clear the deadline so a keep-alive connection's next request
		// does not inherit it. On a timed-out read the expired deadline
		// deliberately stays armed: the server's post-handler body drain
		// then fails instantly and the connection closes, instead of
		// blocking forever on bytes the trickling client will never send.
		_ = rc.SetReadDeadline(time.Time{})
	}
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			reject(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds limit %d", s.cfg.MaxBody), 0)
			return
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			s.mBodyTimeouts.Inc()
			reject(w, http.StatusRequestTimeout,
				fmt.Sprintf("request body not delivered within %v", s.cfg.BodyReadTimeout), 0)
			return
		}
		reject(w, http.StatusBadRequest, "reading body: "+err.Error(), 0)
		return
	}

	spec, err := DecodeJobRequest(body, s.cfg.DefaultInsts)
	if err != nil {
		reject(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	deadline, err := parseDeadline(r.Header.Get(DeadlineHeader))
	if err != nil {
		reject(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		// The caller's own deadline has already passed; any work done
		// now is orphaned by construction.
		s.mDeadlineExpired.Inc()
		reject(w, http.StatusBadRequest,
			fmt.Sprintf("%s already expired at submission", DeadlineHeader), 0)
		return
	}
	key := r.Header.Get("Idempotency-Key")

	s.submitMu.Lock()
	defer s.submitMu.Unlock()

	// Idempotency: a known key is answered from the store, so client
	// retries can never double-submit. A key reused with a different
	// spec is a client bug worth a loud 409.
	if key != "" {
		if rec, ok := s.store.ByKey(key); ok {
			if rec.Spec.Digest() != spec.Digest() {
				reject(w, http.StatusConflict,
					fmt.Sprintf("idempotency key %q already used with a different spec", key), 0)
				return
			}
			s.mDeduped.Inc()
			writeJSON(w, http.StatusOK, rec)
			return
		}
	}

	if s.draining.Load() {
		s.mShedDraining.Inc()
		reject(w, http.StatusServiceUnavailable, "draining: not accepting new jobs", 10*time.Second)
		return
	}
	if s.storageDegraded.Load() {
		s.mShedStorage.Inc()
		reject(w, http.StatusServiceUnavailable,
			"storage degraded: cannot persist new jobs", 2*s.cfg.StorageProbeEvery)
		return
	}

	id := newJobID(key)
	// The admission span is retroactive: it covers decode + dedup +
	// admission, measured from handler entry, and parents every later
	// span of this job. With no client trace headers it roots a fresh
	// trace, so daemon-side tracing works for plain curl too.
	tctx := s.tracer.Record(clientSpanContext(r), "admission", admitStart, time.Since(admitStart),
		map[string]string{"job": id, "kind": spec.Kind})
	rec := JobStatus{ID: id, Key: key, State: StateQueued, Spec: spec, TraceID: tctx.Trace}
	if !deadline.IsZero() {
		rec.DeadlineUS = deadline.UnixMicro()
	}
	j := &job{id: id, spec: spec, enqueued: time.Now(), tctx: tctx,
		deadline: deadline, admitted: make(chan struct{})}
	if err := s.queue.admit(j); err != nil {
		var adm *admissionError
		if errors.As(err, &adm) {
			s.mShedQueue.Inc()
			reject(w, http.StatusTooManyRequests, adm.Error(), adm.retryAfter)
			return
		}
		reject(w, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	// Write-ahead: the acceptance is durable before it is acknowledged.
	// (A crash between fsync and response just means the client retries
	// its key and finds the job already there.)
	err = s.store.Append(rec)
	// The job is already in the channel. On failure, mark it abandoned
	// so a worker discards it instead of running unrecorded work, flip
	// into degraded mode, and tell the client to retry elsewhere or
	// later — an unpersisted acceptance must never be acknowledged.
	j.dropped = err != nil
	close(j.admitted)
	if err != nil {
		s.storageDegraded.Trip(err)
		s.mShedStorage.Inc()
		reject(w, http.StatusServiceUnavailable,
			"storage degraded: persisting job failed: "+err.Error(), 2*s.cfg.StorageProbeEvery)
		return
	}
	s.mSubmitted.Inc()
	s.gDepth.Set(int64(s.queue.depthNow()))
	s.tel.publish(id, JobEvent{Type: EvQueued})
	s.log.Info("job accepted", "job", id, "kind", spec.Kind, "trace", tctx.Trace)
	writeJSON(w, http.StatusAccepted, rec)
}

// newJobID derives a stable ID from the idempotency key, or a random
// one without. Key-derived IDs are what let a restarted daemon map a
// retried submission onto the recovered job.
func newJobID(key string) string {
	if key != "" {
		sum := sha256.Sum256([]byte("idem:" + key))
		return "j" + hex.EncodeToString(sum[:8])
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand cannot fail on supported platforms.
		panic("server: crypto/rand: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}

// maxStatusWait caps the ?wait= long-poll window of GET /v1/jobs/{id}.
const maxStatusWait = 30 * time.Second

// parseStatusWait reads the ?wait= value (a Go duration; empty means
// answer at once), capped at maxStatusWait.
func parseStatusWait(v string) (time.Duration, error) {
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("invalid wait %q: want a non-negative duration such as 2.5s", v)
	}
	return min(d, maxStatusWait), nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait, err := parseStatusWait(r.URL.Query().Get("wait"))
	if err != nil {
		reject(w, http.StatusBadRequest, err.Error(), 0)
		return
	}
	rec, ok := s.store.Get(id)
	if !ok {
		reject(w, http.StatusNotFound, "unknown job "+id, 0)
		return
	}
	if wait > 0 && !rec.Terminal() {
		rec = s.awaitTerminal(r.Context(), id, wait)
	}
	writeJSON(w, http.StatusOK, rec)
}

// awaitTerminal long-polls one job: it returns the job's record once a
// terminal record is durable in the store, or with the current record
// when wait passes, the client goes away, or the daemon finishes
// draining. The store's per-job wake channel drives it, not the
// telemetry feed.
func (s *Server) awaitTerminal(ctx context.Context, id string, wait time.Duration) JobStatus {
	t := time.NewTimer(wait)
	defer t.Stop()
	for {
		rec, changed := s.store.Watch(id)
		if rec.Terminal() {
			return rec
		}
		select {
		case <-changed:
		case <-t.C:
			return rec
		case <-ctx.Done():
			return rec
		case <-s.baseCtx.Done():
			return rec
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyStatus is the /readyz payload.
type readyStatus struct {
	Ready      bool  `json:"ready"`
	Draining   bool  `json:"draining"`
	QueueDepth int   `json:"queue_depth"`
	Inflight   int64 `json:"inflight"`
	// P99WaitMS is the 99th-percentile queue wait from the service's
	// wait histogram (obs quantile estimate).
	P99WaitMS int64 `json:"p99_wait_ms"`
	// StorageDegraded is true while durable appends are failing: the
	// daemon is alive but shedding new work until the disk recovers.
	StorageDegraded bool `json:"storage_degraded"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := readyStatus{
		Ready:           !s.draining.Load() && !s.storageDegraded.Load(),
		Draining:        s.draining.Load(),
		QueueDepth:      s.queue.depthNow(),
		Inflight:        s.inflight.Load(),
		P99WaitMS:       s.hWaitMS.Snapshot().Quantile(0.99),
		StorageDegraded: s.storageDegraded.Load(),
	}
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// worker runs jobs until told to stop picking new ones.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopPick:
			return
		default:
		}
		select {
		case <-s.stopPick:
			return
		case j := <-s.queue.ch:
			s.runJob(j)
		}
	}
}

// runJob drives one job attempt end to end and records its outcome.
func (s *Server) runJob(j *job) {
	if j.admitted != nil {
		<-j.admitted
	}
	wait := time.Since(j.enqueued)
	s.queue.noteDequeue(j, wait)
	s.gDepth.Set(int64(s.queue.depthNow()))
	if j.dropped {
		// Admission rolled this job back (its acceptance never became
		// durable and the client was told 503); running it would do
		// unacknowledged work.
		return
	}
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		// The caller's deadline expired while the job sat queued: the
		// caller has given up, so the work is orphaned before it starts.
		s.abandonExpired(j)
		return
	}
	s.hWaitMS.Observe(wait.Milliseconds())

	// Queue wait is retroactive (measured from the enqueue timestamp);
	// the worker span then covers the whole attempt, and everything the
	// experiment runner does parents under it.
	tctx := j.tctx
	s.tracer.Record(tctx, "queue_wait", j.enqueued, wait, map[string]string{"job": j.id})
	wsp := s.tracer.Start(tctx, "worker")
	wsp.SetAttr("job", j.id)

	rec, _ := s.store.Get(j.id)
	rec.ID, rec.Spec = j.id, j.spec // first record may be the store miss of a test
	if rec.TraceID == "" {
		rec.TraceID = tctx.Trace
	}
	rec.State = StateRunning
	rec.Attempts++
	rec.Result, rec.Error = nil, nil
	if err := s.store.Append(rec); err != nil {
		s.log.Error("recording job start failed", "job", j.id, "error", err)
		s.storageDegraded.Trip(err)
	}
	s.inflight.Add(1)
	s.gInflight.Set(s.inflight.Load())
	defer func() {
		s.inflight.Add(-1)
		s.gInflight.Set(s.inflight.Load())
	}()
	s.tel.publish(j.id, JobEvent{Type: EvStarted, Attempt: rec.Attempts})
	s.log.Info("job started", "job", j.id, "attempt", rec.Attempts, "trace", rec.TraceID)

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	defer cancel()
	if !j.deadline.IsZero() {
		// The propagated caller deadline caps the run below JobTimeout:
		// past it the caller is gone and further work is orphaned.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, j.deadline)
		defer dcancel()
	}
	opts := exp.Options{
		Parallel:        true,
		StateDir:        s.jobDir(j.id),
		CheckpointEvery: s.cfg.CheckpointEvery,
		Registry:        s.reg,
		Faults:          s.cfg.Faults,
		WatchdogCycles:  s.cfg.WatchdogCycles,
		Tracer:          s.tracer,
		TraceParent:     wsp.Context(),
		FS:              s.cfg.FS,
		WALMetrics:      s.walMet,
		ProgressEvery:   s.cfg.ProgressEvery,
		// The heartbeat and checkpoint hooks run on simulation
		// goroutines; publish is lock-bounded and never blocks, which is
		// what makes them safe there.
		OnProgress: func(label string, committed uint64, cycles int64) {
			ev := JobEvent{Type: EvProgress, Label: label, Committed: committed, Cycles: cycles}
			if cycles > 0 {
				ev.IPC = float64(committed) / float64(cycles)
			}
			s.tel.publish(j.id, ev)
		},
		OnCheckpoint: func(label string) {
			s.tel.publish(j.id, JobEvent{Type: EvCheckpointed, Label: label})
		},
	}
	start := time.Now()
	res, err := exp.RunJob(ctx, j.spec, opts)
	s.hRunMS.Observe(time.Since(start).Milliseconds())
	wsp.EndErr(err)

	switch {
	case err == nil:
		// Seal before persisting: every consumer — the fleet coordinator
		// above all — can verify the result envelope against corruption
		// in transit.
		res.Seal()
		rec.State = StateSucceeded
		rec.Result = res
		s.mSucceeded.Inc()
		if serr := s.store.Append(rec); serr != nil {
			s.log.Error("recording job success failed", "job", j.id, "error", serr)
			s.storageDegraded.Trip(serr)
			return // keep the state dir: the result is not durable
		}
		// The result is durable; the simulation scratch state is now
		// redundant.
		os.RemoveAll(s.jobDir(j.id))
		s.tel.publish(j.id, JobEvent{Type: EvDone, Attempt: rec.Attempts})
		s.log.Info("job succeeded", "job", j.id, "attempt", rec.Attempts, "trace", rec.TraceID)

	case s.baseCtx.Err() != nil:
		// Drain hammer: the run checkpointed on its way out. Requeue so
		// the next daemon resumes it.
		rec.State = StateQueued
		s.mRequeued.Inc()
		if serr := s.store.Append(rec); serr != nil {
			s.log.Error("recording job requeue failed", "job", j.id, "error", serr)
			s.storageDegraded.Trip(serr)
		}
		s.tel.publish(j.id, JobEvent{Type: EvRequeued, Attempt: rec.Attempts})
		s.log.Info("job checkpointed and requeued by drain", "job", j.id)

	default:
		timeout := errors.Is(err, context.DeadlineExceeded)
		// A run cut by the caller's propagated deadline (rather than
		// JobTimeout) counts as a caller expiry.
		if timeout && !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			s.mDeadlineExpired.Inc()
		}
		rec.State = StateFailed
		rec.Error = errorInfo(err, timeout)
		// Flight recorder: freeze the job's recent events into the
		// durable record before the terminal event lands, so the dump is
		// the pre-failure story. The events are redacted by construction
		// — they reference the spec only through its digest.
		if f, ok := s.tel.lookup(j.id); ok {
			rec.Flight = &FlightRecord{SpecDigest: j.spec.Digest(), Events: f.events()}
		}
		s.mFailed.Inc()
		if serr := s.store.Append(rec); serr != nil {
			s.log.Error("recording job failure failed", "job", j.id, "error", serr)
			s.storageDegraded.Trip(serr)
			return
		}
		os.RemoveAll(s.jobDir(j.id))
		s.tel.publish(j.id, JobEvent{Type: EvFailed, Attempt: rec.Attempts, Error: err.Error()})
		s.log.Warn("job failed", "job", j.id, "attempt", rec.Attempts,
			"trace", rec.TraceID, "error", err)
	}
}

// abandonExpired records the terminal timeout of a job whose caller's
// propagated deadline passed while it was still queued. The run never
// starts: no worker time is spent on work nobody is waiting for.
func (s *Server) abandonExpired(j *job) {
	s.mDeadlineExpired.Inc()
	s.mFailed.Inc()
	rec, _ := s.store.Get(j.id)
	rec.ID, rec.Spec = j.id, j.spec
	if rec.TraceID == "" {
		rec.TraceID = j.tctx.Trace
	}
	rec.State = StateFailed
	rec.Result = nil
	rec.Error = &ErrorInfo{
		Message: fmt.Sprintf("caller deadline expired %v before the job reached a worker",
			time.Since(j.deadline).Round(time.Millisecond)),
		Timeout: true,
	}
	if err := s.store.Append(rec); err != nil {
		s.log.Error("recording deadline abandonment failed", "job", j.id, "error", err)
		s.storageDegraded.Trip(err)
	}
	os.RemoveAll(s.jobDir(j.id))
	s.tel.publish(j.id, JobEvent{Type: EvFailed, Attempt: rec.Attempts, Error: rec.Error.Message})
	s.log.Warn("job abandoned: caller deadline expired while queued",
		"job", j.id, "trace", rec.TraceID)
}

// handleTrace returns the daemon-side spans of one job's trace as a
// JSON array (?format=chrome renders a chrome://tracing-loadable
// trace_event file instead). Clients merge these with their own spans
// to assemble the full cross-process trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.store.Get(id)
	if !ok {
		reject(w, http.StatusNotFound, "unknown job "+id, 0)
		return
	}
	if rec.TraceID == "" {
		writeJSON(w, http.StatusOK, []obs.Span{})
		return
	}
	var spans []obs.Span
	for _, sp := range s.tracer.Spans() {
		if sp.Trace == rec.TraceID {
			spans = append(spans, sp)
		}
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteChromeSpans(w, spans)
		return
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, spans)
}

// Drain gracefully shuts the service down: stop accepting, stop picking
// new jobs, give in-flight jobs DrainTimeout to finish, then cancel the
// stragglers — which checkpoints them and requeues their records — and
// wait for the workers to exit. It reports whether every in-flight job
// finished inside the deadline. Queued jobs that never started keep
// their queued records and are re-enqueued by the next daemon. Safe to
// call more than once.
func (s *Server) Drain() bool {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.gDraining.Set(1)
		s.log.Info("draining", "queued", s.queue.depthNow(), "inflight", s.inflight.Load())
		s.stopOnce.Do(func() { close(s.stopPick) })
		s.drainedOK = shutdown.WaitGroup(s.wg.Wait, s.cfg.DrainTimeout)
		if !s.drainedOK {
			s.log.Warn("drain deadline elapsed; cancelling in-flight jobs into checkpoints",
				"inflight", s.inflight.Load())
			s.baseCancel()
			// Cancellation propagates within one commit batch; workers
			// then exit promptly.
			s.wg.Wait()
		}
		s.baseCancel()
		s.log.Info("drained", "clean", s.drainedOK)
	})
	return s.drainedOK
}

// Close drains (if not already drained) and releases the job store.
func (s *Server) Close() error {
	s.Drain()
	return s.store.Close()
}

// Store exposes the job store for tests and the status API.
func (s *Server) Store() *Store { return s.store }

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }
