package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rvpsim/internal/client"
	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/server"
	"rvpsim/internal/workloads"
)

// rvpdConfig is the configuration cmd/rvpd builds from its flag defaults.
// rvpd logs at info level; here the same text handler formats every
// record into io.Discard, so the cost is paid but nothing is printed.
func rvpdConfig(stateDir string, workers int) server.Config {
	return server.Config{
		StateDir:         stateDir,
		Workers:          workers,
		QueueDepth:       64,
		MaxWait:          30 * time.Second,
		JobTimeout:       10 * time.Minute,
		DrainTimeout:     10 * time.Second,
		BreakerThreshold: 3,
		BreakerCooloff:   30 * time.Second,
		DefaultInsts:     2_000_000,
		CheckpointEvery:  200_000,
		MaxBody:          1 << 20,
		BodyReadTimeout:  30 * time.Second,
		TenantBurst:      1,
		Logger:           discardLogger("rvpd"),
		ProgressEvery:    100_000,
	}
}

func discardLogger(service string) *slog.Logger {
	h := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})
	return slog.New(h).With("service", service)
}

// daemon is one in-process rvpd behind a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Close())
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) stop() error {
	err := d.hs.Close()
	<-d.served
	return errors.Join(err, d.srv.Close())
}

// serve is a closed loop of GOMAXPROCS callers against an in-process rvpd
// at its defaults, job store on disk. Callers wait for each reply, as
// `rvpc submit -wait` callers do, so there is no think time.
type serve struct {
	o     Options
	dir   string
	d     *daemon
	specs []exp.JobSpec
	refs  map[string]reference // spec digest -> direct exp.RunJob
}

type reference struct {
	stats pipeline.Stats
	dur   time.Duration
}

func setupServe(_ context.Context, o Options) (session, error) {
	dir, err := os.MkdirTemp(o.Dir, "serve-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(rvpdConfig(filepath.Join(dir, "state"), runtime.GOMAXPROCS(0)))
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s := &serve{o: o, dir: dir, d: d, refs: map[string]reference{}}
	for _, wl := range workloads.Names() {
		for _, p := range exp.JobPredictors() {
			s.specs = append(s.specs, exp.JobSpec{Kind: "run", Workload: wl, Predictor: p, Insts: o.Budget.JobInsts})
		}
	}
	return s, nil
}

func (s *serve) close() error { return errors.Join(s.d.stop(), os.RemoveAll(s.dir)) }

// jobOp is one closed-loop operation: a fresh job, or a resubmission of a
// finished job's idempotency key.
type jobOp struct {
	spec      exp.JobSpec
	key, id   string
	resubmit  bool
	submit    time.Duration // the Submit call's round trip
	lat       time.Duration // fresh jobs: Submit call to terminal SSE event
	end       time.Time
	committed uint64 // set by verify
	err       error
}

// loop runs the closed loop for d. Each caller submits a job, watches its
// event stream to the terminal frame, and submits the next; every 4th
// operation instead resubmits one of the caller's finished keys, which the
// job store answers from its read path. Every caller makes at least four
// operations, so even a short loop exercises both paths. Specs cycle
// through the 9 workloads x 8 job predictors in order.
func (s *serve) loop(ctx context.Context, phase string, d time.Duration, clients []*client.Client, order []int) []jobOp {
	deadline := time.Now().Add(d)
	var next atomic.Int64
	var mu sync.Mutex
	var ops []jobOp
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *client.Client) {
			defer wg.Done()
			var finished []jobOp
			for n := 0; (n < 4 || time.Now().Before(deadline)) && ctx.Err() == nil; n++ {
				var op jobOp
				if n%4 == 3 && len(finished) > 0 {
					op = resubmit(ctx, cl, finished[(n/4)%len(finished)])
				} else {
					spec := s.specs[order[int(next.Add(1)-1)%len(order)]]
					op = fresh(ctx, cl, spec, fmt.Sprintf("rvpbench-%d-%s-%d-%d", s.o.Seed, phase, c, n))
					if op.err == nil {
						finished = append(finished, op)
					}
				}
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c, cl)
	}
	wg.Wait()
	return ops
}

func fresh(ctx context.Context, cl *client.Client, spec exp.JobSpec, key string) jobOp {
	op := jobOp{spec: spec, key: key}
	start := time.Now()
	st, err := cl.Submit(ctx, spec, key)
	op.submit = time.Since(start)
	if err != nil {
		op.err = fmt.Errorf("submit: %w", err)
		return op
	}
	op.id = st.ID
	ev, err := cl.Watch(ctx, st.ID, 0, func(server.JobEvent) {})
	op.end = time.Now()
	op.lat = op.end.Sub(start)
	switch {
	case err != nil:
		op.err = fmt.Errorf("watch %s: %w", st.ID, err)
	case ev.Type != server.EvDone:
		op.err = fmt.Errorf("job %s ended %s: %s", st.ID, ev.Type, ev.Error)
	}
	return op
}

func resubmit(ctx context.Context, cl *client.Client, prev jobOp) jobOp {
	op := jobOp{spec: prev.spec, key: prev.key, id: prev.id, resubmit: true}
	start := time.Now()
	st, err := cl.Submit(ctx, prev.spec, prev.key)
	op.submit = time.Since(start)
	op.end = time.Now()
	switch {
	case err != nil:
		op.err = fmt.Errorf("resubmit %s: %w", prev.key, err)
	case st.ID != prev.id || st.State != server.StateSucceeded || !st.Result.Verify():
		op.err = fmt.Errorf("resubmit %s answered job %s in state %s", prev.key, st.ID, st.State)
	}
	return op
}

// reference is a direct serial exp.RunJob of spec, memoized.
func (s *serve) reference(ctx context.Context, spec exp.JobSpec) (reference, error) {
	k := spec.Digest()
	if r, ok := s.refs[k]; ok {
		return r, nil
	}
	start := time.Now()
	res, err := exp.RunJob(ctx, spec, exp.Options{})
	if err != nil {
		return reference{}, err
	}
	r := reference{stats: *res.Stats, dur: time.Since(start)}
	s.refs[k] = r
	return r, nil
}

// verify counts ops as attempted and failures as failed, and checks every
// fresh job's sealed result: it must Verify and equal a direct exp.RunJob
// of its spec. A job that fails the check gets op.err; a verified job's
// committed instructions go to op.committed.
func (s *serve) verify(ctx context.Context, cl *client.Client, ops []jobOp, rep *Report) error {
	rep.Attempted += len(ops)
	for i := range ops {
		op := &ops[i]
		if op.err == nil && !op.resubmit {
			op.err = s.check(ctx, cl, op)
		}
		if op.err != nil {
			rep.fail("serve: %v", op.err)
		}
	}
	return ctx.Err()
}

func (s *serve) check(ctx context.Context, cl *client.Client, op *jobOp) error {
	st, err := cl.Status(ctx, op.id)
	if err != nil {
		return fmt.Errorf("status %s: %w", op.id, err)
	}
	ref, err := s.reference(ctx, op.spec)
	if err != nil {
		return fmt.Errorf("reference %s/%s: %w", op.spec.Workload, op.spec.Predictor, err)
	}
	switch {
	case st.Result == nil || st.Result.Stats == nil:
		return fmt.Errorf("job %s has no result", op.id)
	case !st.Result.Verify():
		return fmt.Errorf("job %s result fails its seal", op.id)
	case *st.Result.Stats != ref.stats:
		return fmt.Errorf("job %s (%s/%s) differs from a direct exp.RunJob", op.id, op.spec.Workload, op.spec.Predictor)
	}
	op.committed = st.Result.Stats.Committed
	return nil
}

func (s *serve) clients(opts ...client.Option) []*client.Client {
	cls := make([]*client.Client, runtime.GOMAXPROCS(0))
	for i := range cls {
		cls[i] = client.New(s.d.url, opts...)
	}
	return cls
}

// run warms the loop up unrecorded, then measures a window of Seconds.
// op_p50_ms is the median submit-to-terminal-event latency of the
// window's fresh jobs. For the other two, the jobs are cut in completion
// order into one group per second of window: minsts_per_s is the median
// over groups of the instructions committed over the time the group's
// completions span, and op_tail_ms the median of the groups' p90
// latencies, so a second in which other load on the machine stalled the
// loop moves neither.
func (s *serve) run(ctx context.Context, rep *Report) error {
	cls := s.clients()
	order := rand.New(rand.NewSource(s.o.Seed)).Perm(len(s.specs))
	warm := s.loop(ctx, "warm", s.o.Budget.ServeWarmup, cls, order)
	window := time.Duration(s.o.Seconds * float64(time.Second))
	alloc0 := totalAlloc()
	ops := s.loop(ctx, "run", window, cls, order)
	fresh := 0
	for _, op := range ops {
		if op.err == nil && !op.resubmit {
			fresh++
		}
	}
	rep.measured(alloc0, max(fresh, 1))
	if err := s.verify(ctx, cls[0], warm, rep); err != nil {
		return err
	}
	if err := s.verify(ctx, cls[0], ops, rep); err != nil {
		return err
	}

	var done []jobOp
	var lat []float64
	for _, op := range ops {
		if op.err == nil && !op.resubmit {
			done = append(done, op)
			lat = append(lat, ms(op.lat))
		}
	}
	if len(done) < 2 {
		return fmt.Errorf("serve: %d jobs completed", len(done))
	}
	sort.Slice(done, func(i, j int) bool { return done[i].end.Before(done[j].end) })
	groups := min(max(int(window/time.Second), 1), len(done)/2)
	var rates, tails []float64
	for g := 0; g < groups; g++ {
		grp := done[g*len(done)/groups : (g+1)*len(done)/groups]
		var insts uint64
		var glat []float64
		for i, op := range grp {
			if i > 0 { // the span starts at the first completion
				insts += op.committed
			}
			glat = append(glat, ms(op.lat))
		}
		rates = append(rates, float64(insts)/grp[len(grp)-1].end.Sub(grp[0].end).Seconds()/1e6)
		tails = append(tails, percentile(glat, 0.90))
	}
	rep.set("minsts_per_s", "Minst/s", median(rates), rates)
	rep.set("op_p50_ms", "ms", median(lat), lat)
	rep.set("op_tail_ms", "ms", median(tails), tails)
	return nil
}

// traced measures the service's layers from outside: the client's submit
// round trip and retries, the daemon's queue_wait and worker spans read
// back through Client.Trace, SSE delivery from the worker span's end to
// the terminal event, the dedupe read path, a direct exp.RunJob of the
// same specs, and the job store's append and the result seal called
// directly. There is no warm-up, so the daemon's bounded span buffer
// holds the measured jobs.
func (s *serve) traced(ctx context.Context, rep *Report, window time.Duration) error {
	tr := obs.NewTracer("rvpc", 1<<18)
	cls := s.clients(client.WithTracer(tr))
	order := rand.New(rand.NewSource(s.o.Seed)).Perm(len(s.specs))
	sp := s.o.Tracer.Start(obs.SpanContext{}, "serve.loop")
	cpu0 := cpuSeconds()
	start := time.Now()
	ops := s.loop(ctx, "trace", window, cls, order)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	sp.End()
	if err := s.verify(ctx, cls[0], ops, rep); err != nil {
		return err
	}

	var lat, submit, dedupe, queue, worker, notify []float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		if op.resubmit {
			dedupe = append(dedupe, ms(op.submit))
			continue
		}
		lat = append(lat, ms(op.lat))
		submit = append(submit, ms(op.submit))
		spans, err := cls[0].Trace(ctx, op.id)
		if err != nil {
			return fmt.Errorf("serve: trace %s: %w", op.id, err)
		}
		q, w, ok := jobSpans(spans)
		if !ok {
			continue // past the daemon's span capacity
		}
		queue = append(queue, float64(q.DurUS)/1000)
		worker = append(worker, float64(w.DurUS)/1000)
		// Delivery: from the worker span's end to the terminal event's
		// arrival, both on this process's wall clock.
		notify = append(notify, float64(op.end.UnixMicro()-w.StartUS-w.DurUS)/1000)
	}
	if len(lat) == 0 {
		return fmt.Errorf("serve: no job completed")
	}
	var runjob []float64
	for _, spec := range s.specs {
		r, err := s.reference(ctx, spec)
		if err != nil {
			return err
		}
		runjob = append(runjob, ms(r.dur))
	}
	attempts, shed, submits := 0, 0, 0
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "submit":
			submits++
		case "submit_attempt":
			attempts++
			if st := sp.Attrs["status"]; st == "429" || st == "503" {
				shed++
			}
		}
	}
	rep.set("client.submit_ms_p50", "ms", median(submit), submit)
	rep.set("client.submit_ms_p99", "ms", percentile(submit, 0.99), submit)
	rep.set("client.retries", "count", float64(attempts-submits), nil)
	rep.set("server.shed_frac", "ratio", float64(shed)/float64(max(attempts, 1)), nil)
	rep.set("server.queue_wait_ms_p50", "ms", median(queue), queue)
	rep.set("server.queue_wait_ms_p99", "ms", percentile(queue, 0.99), queue)
	rep.set("server.worker_ms_p50", "ms", median(worker), worker)
	rep.set("server.notify_ms_p50", "ms", median(notify), notify)
	rep.set("server.dedupe_ms_p50", "ms", median(dedupe), dedupe)
	rep.set("exp.runjob_ms_p50", "ms", median(runjob), runjob)
	rep.set("server.overhead_ms_p50", "ms", median(lat)-median(runjob), nil)
	rep.set("serve.cpu_util", "ratio", cpu/(wall*float64(runtime.GOMAXPROCS(0))), nil)
	return s.storeAndSeal(ctx, rep)
}

// jobSpans finds a job's queue_wait and worker spans.
func jobSpans(spans []obs.Span) (queue, worker obs.Span, ok bool) {
	var hasQ, hasW bool
	for _, sp := range spans {
		switch sp.Name {
		case "queue_wait":
			queue, hasQ = sp, true
		case "worker":
			worker, hasW = sp, true
		}
	}
	return queue, worker, hasQ && hasW
}

// storeAndSeal times the job store's fsync'd append of a JobStatus-sized
// record in a fresh store on the same filesystem, and JobResult.Seal.
func (s *serve) storeAndSeal(ctx context.Context, rep *Report) error {
	res, err := exp.RunJob(ctx, s.specs[0], exp.Options{})
	if err != nil {
		return err
	}
	rec := server.JobStatus{ID: "bench", Key: "bench", State: server.StateSucceeded, Spec: s.specs[0], Result: res}
	res.Seal()
	st, err := server.OpenStore(filepath.Join(s.dir, "append.wal"))
	if err != nil {
		return err
	}
	appends, err := timeN(1000, 2*time.Second, func(i int) error {
		rec.ID = fmt.Sprintf("bench-%d", i)
		return st.Append(rec)
	})
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: store append: %w", err)
	}
	seal, _ := timeN(1000, time.Second, func(int) error { res.Seal(); return nil })
	rep.set("wal.store_append_us_p50", "us", median(appends), appends)
	rep.set("wal.store_append_us_p99", "us", percentile(appends, 0.99), appends)
	rep.set("exp.seal_us_p50", "us", median(seal), seal)
	return nil
}

// timeN times up to n calls of f, stopping early once budget is spent,
// and returns each call's duration in microseconds.
func timeN(n int, budget time.Duration, f func(i int) error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < n && (i == 0 || time.Since(start) < budget); i++ {
		t := time.Now()
		if err := f(i); err != nil {
			return out, err
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}
