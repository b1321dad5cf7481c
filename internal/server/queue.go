package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
)

// job is one queued unit of work.
type job struct {
	id       string
	spec     exp.JobSpec
	enqueued time.Time
	// tctx is the span context the job's server-side spans parent
	// under: the admission span for fresh submissions, a bare trace ID
	// for jobs recovered from the store.
	tctx obs.SpanContext
	// admitted is closed by admission once it knows whether the job's
	// acceptance record is durable (nil for jobs recovered from the
	// store). A worker waits on it before touching the job, so the
	// queued record can never land after the job's own running or
	// terminal record and turn a finished job back into a queued one.
	admitted chan struct{}
	// dropped, set before admitted closes, marks a job whose acceptance
	// record could not be written: the client got a 503, so a worker
	// must discard it instead of running unacknowledged work.
	dropped bool
	// deadline is the caller's propagated deadline (zero: none). Jobs
	// past it are abandoned at dequeue; running jobs are cancelled.
	deadline time.Time
}

// admissionError is the typed rejection a full or slow queue returns;
// the HTTP layer maps it to 429 + Retry-After.
type admissionError struct {
	reason     string // "queue_full" or "queue_slow"
	retryAfter time.Duration
}

func (e *admissionError) Error() string {
	return fmt.Sprintf("admission rejected: %s (retry after %v)", e.reason, e.retryAfter)
}

// queue is the bounded job queue with admission control. Admission is
// refused — never blocked — when the configured depth limit is reached
// or when the p99 of recently observed queue waits exceeds maxWait:
// under overload the service sheds with 429 + Retry-After instead of
// growing an unbounded backlog whose tail latency nobody survives.
//
// The channel capacity may exceed the admission limit: jobs recovered
// from the store on startup are force-enqueued past admission (they
// were already accepted by a previous daemon and must not be lost).
type queue struct {
	ch      chan *job
	limit   int
	maxWait time.Duration
	depth   atomic.Int64
	now     func() time.Time // injectable for tests

	// Ring of recent queue waits for the p99 admission signal. Exact
	// over the window, cheap, and immune to the unbounded history a
	// cumulative histogram would average away. Samples expire (see
	// horizon) so a past stall cannot shed traffic forever: without
	// expiry, slow waits would block admission, admission being blocked
	// would starve the ring of fresh samples, and the queue would
	// livelock rejecting everything.
	mu    sync.Mutex
	waits []waitSample
	n     int // filled entries
	idx   int // next write position
}

type waitSample struct {
	d  time.Duration
	at time.Time
}

// queueWindow is how many recent waits the admission p99 considers.
const queueWindow = 128

func newQueue(limit, capacity int, maxWait time.Duration) *queue {
	if capacity < limit {
		capacity = limit
	}
	return &queue{
		ch:      make(chan *job, capacity),
		limit:   limit,
		maxWait: maxWait,
		now:     time.Now,
		waits:   make([]waitSample, queueWindow),
	}
}

// horizon is how long a wait sample stays in the p99 window.
func (q *queue) horizon() time.Duration {
	if q.maxWait > 0 {
		return 4 * q.maxWait
	}
	return 2 * time.Minute
}

// admit enqueues j or returns an *admissionError. It never blocks.
func (q *queue) admit(j *job) error {
	if int(q.depth.Load()) >= q.limit {
		return &admissionError{reason: "queue_full", retryAfter: q.retryAfter()}
	}
	// The wait-based signal only applies while work is actually queued:
	// an empty queue cannot make anyone wait, no matter what the recent
	// history says.
	if p := q.p99(); q.maxWait > 0 && p > q.maxWait && q.depth.Load() > 0 {
		return &admissionError{reason: "queue_slow", retryAfter: q.retryAfter()}
	}
	select {
	case q.ch <- j:
		q.depth.Add(1)
		return nil
	default:
		// The channel itself filled (recovered jobs occupy capacity).
		return &admissionError{reason: "queue_full", retryAfter: q.retryAfter()}
	}
}

// force enqueues a job recovered from the store, bypassing admission.
// Capacity is sized at startup to hold every recovered job, so this
// cannot block in practice; blocking here would mean a sizing bug, and
// deadlocking a startup is better caught than silently dropping work.
func (q *queue) force(j *job) {
	q.ch <- j
	q.depth.Add(1)
}

// noteDequeue records that a worker picked up j after waiting.
func (q *queue) noteDequeue(j *job, wait time.Duration) {
	q.depth.Add(-1)
	q.mu.Lock()
	q.waits[q.idx] = waitSample{d: wait, at: q.now()}
	q.idx = (q.idx + 1) % len(q.waits)
	if q.n < len(q.waits) {
		q.n++
	}
	q.mu.Unlock()
}

// p99 returns the 99th-percentile wait over the recent, unexpired
// window (0 with no samples).
func (q *queue) p99() time.Duration {
	cutoff := q.now().Add(-q.horizon())
	q.mu.Lock()
	buf := make([]time.Duration, 0, q.n)
	for _, s := range q.waits[:q.n] {
		if s.at.After(cutoff) {
			buf = append(buf, s.d)
		}
	}
	q.mu.Unlock()
	n := len(buf)
	if n == 0 {
		return 0
	}
	// Selection by sort: the window is tiny and admission is off the
	// simulation hot path.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && buf[j] < buf[j-1]; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	k := (99*n + 99) / 100 // ceil rank
	if k > n {
		k = n
	}
	return buf[k-1]
}

// retryAfter estimates how long a shed client should back off: the
// recent p99 wait, clamped to [1s, 60s] so the header is always sane
// even with no samples yet.
func (q *queue) retryAfter() time.Duration {
	p := q.p99()
	if p < time.Second {
		return time.Second
	}
	if p > time.Minute {
		return time.Minute
	}
	return p.Round(time.Second)
}

// depthNow returns the current queue depth.
func (q *queue) depthNow() int { return int(q.depth.Load()) }
