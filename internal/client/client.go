// Package client is the retrying rvpd client: idempotency-keyed job
// submission with capped exponential backoff + jitter that honors the
// server's Retry-After hints, plus long-polled status and a wait loop.
//
// The retry/idempotency contract: every logical submission carries one
// idempotency key (caller-supplied or generated once per Submit call),
// and every retry — whether provoked by a 429 shed, a 503 drain or
// storage-degraded rejection, a 5xx, or a transport error — resends the
// same key. The server maps a known key onto the existing job, so
// "retry until accepted" can never double-run a job, and a submission
// interrupted by a daemon restart lands on the recovered job.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"rvpsim/internal/exp"
	"rvpsim/internal/obs"
	"rvpsim/internal/server"
)

// Backoff shapes the retry schedule: attempt n sleeps
// min(Base*Factor^n, Max), then the "equal jitter" split keeps half and
// randomizes the other half so synchronized clients de-correlate. A
// server Retry-After always wins when it asks for longer.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
}

// DefaultBackoff matches the service's shed cadence: quick first
// retries, capped at the queue's own Retry-After ceiling.
func DefaultBackoff() Backoff {
	return Backoff{Base: 100 * time.Millisecond, Max: 30 * time.Second, Factor: 2}
}

// delay computes the jittered sleep before retry attempt n (0-based),
// not yet considering Retry-After.
func (b Backoff) delay(attempt int, rng func() float64) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt && d < float64(b.Max); i++ {
		d *= b.Factor
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	half := d / 2
	return time.Duration(half + half*rng())
}

// Client talks to one rvpd instance.
type Client struct {
	base       string // e.g. "http://127.0.0.1:8080"
	hc         *http.Client
	backoff    Backoff
	attempts   int
	maxElapsed time.Duration
	log        *slog.Logger
	tracer     *obs.Tracer

	mu  sync.Mutex
	rng *rand.Rand
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (tests, timeouts).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBackoff substitutes the retry schedule.
func WithBackoff(b Backoff) Option { return func(c *Client) { c.backoff = b } }

// WithMaxAttempts bounds submission attempts (default 10).
func WithMaxAttempts(n int) Option { return func(c *Client) { c.attempts = n } }

// WithMaxElapsed bounds the total wall-clock time one Submit call may
// spend across all attempts and backoff sleeps. Attempt counts alone do
// not bound time — a server sending large Retry-After hints can stretch
// ten attempts over minutes — so callers that hold a time-bounded
// resource (a fleet coordinator holding a cell lease, say) cap elapsed
// time too. Zero leaves only the attempt cap and the caller's context.
func WithMaxElapsed(d time.Duration) Option { return func(c *Client) { c.maxElapsed = d } }

// WithSeed makes the jitter deterministic (tests).
func WithSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithLogger logs every request, retry and backoff decision (with the
// submission's trace ID) through l.
func WithLogger(l *slog.Logger) Option { return func(c *Client) { c.log = l } }

// WithTracer collects client-side spans (one per submission, one per
// attempt) and propagates trace identity to the server via
// X-Rvp-Trace-Id/X-Rvp-Parent-Span, so client and daemon spans form
// one connected trace.
func WithTracer(t *obs.Tracer) Option { return func(c *Client) { c.tracer = t } }

// New builds a client for the server at base URL.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:     base,
		hc:       &http.Client{Timeout: 2 * time.Minute},
		backoff:  DefaultBackoff(),
		attempts: 10,
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		rng:      rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *Client) rand() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// RetryableError reports a submission that exhausted its attempts; it
// carries the last HTTP status observed (0 for transport errors).
type RetryableError struct {
	Attempts   int
	LastStatus int
	Last       error
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("submission not accepted after %d attempts (last status %d): %v",
		e.Attempts, e.LastStatus, e.Last)
}

func (e *RetryableError) Unwrap() error { return e.Last }

// NewIdempotencyKey returns a fresh random key.
func NewIdempotencyKey() string {
	return fmt.Sprintf("k%08x%08x", rand.Uint32(), rand.Uint32())
}

// Submit submits spec under the idempotency key (one is generated when
// empty), retrying with backoff until the server accepts, dedupes, or a
// non-retryable error occurs. 4xx responses other than 429 are
// permanent failures surfaced immediately.
func (c *Client) Submit(ctx context.Context, spec exp.JobSpec, key string) (server.JobStatus, error) {
	if key == "" {
		key = NewIdempotencyKey()
	}
	// The job's propagated deadline is the caller's own deadline,
	// captured before the retry budget narrows the context: the elapsed
	// cap bounds this submission, not the job's execution, and
	// conflating the two would make the server kill every job slower
	// than one retry budget.
	var jobDeadline time.Time
	if d, ok := ctx.Deadline(); ok {
		jobDeadline = d
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return server.JobStatus{}, err
	}
	// The submit span roots the trace (all attempts, and — via header
	// propagation — everything the daemon does for this job, too).
	ssp := c.tracer.Start(obs.SpanContext{}, "submit")
	ssp.SetAttr("kind", spec.Kind)
	trace := ssp.Context().Trace
	var st server.JobStatus
	err = c.retry(ctx, "submit", func(ctx context.Context) (int, error) {
		asp := c.tracer.Start(ssp.Context(), "submit_attempt")
		var status int
		var err error
		st, status, err = c.trySubmit(ctx, body, key, asp.Context(), jobDeadline)
		asp.SetAttr("status", strconv.Itoa(status))
		asp.EndErr(err)
		return status, err
	}, "trace", trace)
	if err != nil {
		ssp.EndErr(err)
		return server.JobStatus{}, err
	}
	c.log.Info("submitted", "job", st.ID, "state", st.State, "trace", trace)
	ssp.SetAttr("job", st.ID)
	ssp.End()
	return st, nil
}

// retry runs try until it succeeds, fails permanently (a 4xx other than
// 429) or uses up the attempt cap, sleeping the jittered backoff,
// stretched to any Retry-After, between attempts. The elapsed cap is a
// context deadline, not bookkeeping: it bounds in-flight requests and
// backoff sleeps alike, so a call can never outlive its budget waiting
// on a slow transport or a server whose Retry-After hints keep
// stretching the schedule. op names the call in logs, and kv adds
// fields to each of its log lines.
func (c *Client) retry(ctx context.Context, op string, try func(context.Context) (int, error), kv ...any) error {
	if c.maxElapsed > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.maxElapsed)
		defer cancel()
	}
	log := c.log.With(kv...)
	var lastErr error
	lastStatus := 0
	for attempt := 0; attempt < c.attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1, retryAfterHint(lastErr)); err != nil {
				return err
			}
		}
		status, err := try(ctx)
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case !retryable(status, err):
			log.Warn(op+" rejected permanently", "status", status, "error", err)
			return err
		}
		log.Debug(op+" attempt failed; backing off", "attempt", attempt+1, "status", status, "error", err)
		lastErr, lastStatus = err, status
	}
	err := &RetryableError{Attempts: c.attempts, LastStatus: lastStatus, Last: lastErr}
	log.Warn(op+" exhausted attempts", "error", err)
	return err
}

// httpError is a non-2xx response, keeping the server's Retry-After.
type httpError struct {
	status     int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string {
	return fmt.Sprintf("server returned %d: %s", e.status, e.msg)
}

// StatusCode exposes the HTTP status (for callers and tests).
func (e *httpError) StatusCode() int { return e.status }

// retryAfterHint extracts the Retry-After a previous attempt carried.
func retryAfterHint(err error) time.Duration {
	var he *httpError
	if errors.As(err, &he) {
		return he.retryAfter
	}
	return 0
}

// retryable classifies one failed attempt: shed responses (429),
// unavailability (503), server errors (5xx) and transport errors are
// retried; other 4xx are the caller's bug.
func retryable(status int, err error) bool {
	if status == 0 {
		return true // transport error
	}
	return status == http.StatusTooManyRequests || status >= 500
}

// sleep waits the jittered backoff for attempt, stretched to at least
// the server's Retry-After when one was given.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.backoff.delay(attempt, c.rand)
	if retryAfter > d {
		d = retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newRequest builds one API request with the client's common headers:
// when ctx carries a deadline, the propagated X-Rvp-Deadline, so the
// server can refuse or cancel work whose caller has already given up.
// POST bodies are buffered ([]byte) and GetBody
// is guaranteed non-nil, so any retry — ours or a transport-level
// redirect/replay — rewinds a fresh reader instead of resending a
// drained one.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		// http.NewRequest sets this for *bytes.Reader already; keep it
		// explicit so the replayable-body contract survives refactors.
		req.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if d, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(d.UnixMicro(), 10))
	}
	return req, nil
}

func (c *Client) trySubmit(ctx context.Context, body []byte, key string, tctx obs.SpanContext, jobDeadline time.Time) (server.JobStatus, int, error) {
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return server.JobStatus{}, 0, err
	}
	// newRequest stamped the request context's deadline (the retry
	// budget); the job deadline the server enforces is the caller's.
	if jobDeadline.IsZero() {
		req.Header.Del(server.DeadlineHeader)
	} else {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(jobDeadline.UnixMicro(), 10))
	}
	req.Header.Set("Idempotency-Key", key)
	if tctx.Trace != "" {
		req.Header.Set(server.TraceIDHeader, tctx.Trace)
		req.Header.Set(server.ParentSpanHeader, tctx.Span)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		var st server.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return server.JobStatus{}, resp.StatusCode, fmt.Errorf("decoding response: %w", err)
		}
		return st, resp.StatusCode, nil
	}
	return server.JobStatus{}, resp.StatusCode, decodeError(resp)
}

// decodeError turns a non-2xx response into an *httpError.
func decodeError(resp *http.Response) error {
	he := &httpError{status: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		he.retryAfter = time.Duration(secs) * time.Second
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		he.msg = body.Error
	} else {
		he.msg = string(bytes.TrimSpace(raw))
	}
	return he
}

// Status fetches one job's current state.
func (c *Client) Status(ctx context.Context, id string) (server.JobStatus, error) {
	return c.StatusWait(ctx, id, 0)
}

// StatusWait fetches one job's state, long-polling when wait > 0: the
// server holds a non-terminal answer until the job's terminal record is
// durable or wait passes (it caps wait). A daemon that predates the
// wait parameter ignores it and answers at once.
func (c *Client) StatusWait(ctx context.Context, id string, wait time.Duration) (server.JobStatus, error) {
	path := "/v1/jobs/" + id
	if wait > 0 {
		path += "?" + url.Values{"wait": {wait.String()}}.Encode()
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.JobStatus{}, decodeError(resp)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.JobStatus{}, fmt.Errorf("decoding status: %w", err)
	}
	return st, nil
}

// Wait long-polls the job until it reaches a terminal state, with poll
// as each request's wait window (default 200ms). Polls start at least
// poll apart, so a daemon that ignores the wait is not hammered.
// Transport errors and 5xx during polling are tolerated (the daemon may
// be restarting mid-drain).
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (server.JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		began := time.Now()
		st, err := c.StatusWait(ctx, id, poll)
		if err == nil && st.Terminal() {
			return st, nil
		}
		if err != nil {
			var he *httpError
			if errors.As(err, &he) && he.status == http.StatusNotFound {
				// A restarted daemon replays its store before serving, so
				// a 404 here means the job truly never existed.
				return server.JobStatus{}, err
			}
		}
		t := time.NewTimer(time.Until(began.Add(poll)))
		select {
		case <-ctx.Done():
			t.Stop()
			return server.JobStatus{}, ctx.Err()
		case <-t.C:
		}
	}
}

// SubmitAndWait submits with retries, then waits for the terminal state.
func (c *Client) SubmitAndWait(ctx context.Context, spec exp.JobSpec, key string, poll time.Duration) (server.JobStatus, error) {
	st, err := c.Submit(ctx, spec, key)
	if err != nil {
		return st, err
	}
	if st.Terminal() {
		return st, nil
	}
	return c.Wait(ctx, st.ID, poll)
}

// RegisterWorker announces a worker's base URL to a fleet coordinator
// (the Client's base must point at the coordinator). Registration is
// idempotent on the coordinator side, so the call retries with the same
// backoff schedule as Submit until the coordinator accepts or a
// permanent 4xx says the URL itself is bad. Daemons use this to
// self-advertise on startup (rvpd -advertise) while the coordinator may
// still be coming up.
func (c *Client) RegisterWorker(ctx context.Context, workerURL string) error {
	body, err := json.Marshal(map[string]string{"url": workerURL})
	if err != nil {
		return err
	}
	err = c.retry(ctx, "worker registration", func(ctx context.Context) (int, error) {
		return c.tryRegister(ctx, body)
	}, "worker", workerURL)
	if err == nil {
		c.log.Info("worker registered", "worker", workerURL, "coordinator", c.base)
	}
	return err
}

func (c *Client) tryRegister(ctx context.Context, body []byte) (int, error) {
	req, err := c.newRequest(ctx, http.MethodPost, "/v1/workers", body)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		return resp.StatusCode, nil
	}
	return resp.StatusCode, decodeError(resp)
}

// CheckEndpoint GETs one of the daemon's plumbing endpoints (/healthz,
// /readyz, /metrics) and returns its body, failing on non-200.
func (c *Client) CheckEndpoint(ctx context.Context, path string) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(raw), fmt.Errorf("%s returned %d", path, resp.StatusCode)
	}
	return string(raw), nil
}
