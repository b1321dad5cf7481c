// Package server is the hardened simulation service: an HTTP/JSON API
// in front of a bounded job queue with admission control, a fixed
// worker pool driving jobs through the crash-safe experiment runner,
// and a graceful drain that requeues unfinished work so a restarted
// daemon resumes it, replaying the cells its journal holds.
//
// The contract with clients:
//
//   - POST /v1/jobs submits a job (exp.JobSpec JSON). 202 + JobStatus on
//     acceptance. 429 + Retry-After when the queue is full or its p99
//     wait exceeds the admission limit; 503 + Retry-After while
//     draining or while storage is degraded; 400 for invalid specs and
//     malformed or already-expired X-Rvp-Deadline values; 408 when the
//     request body does not arrive within the body-read timeout
//     (slow-loris defense; the connection closes); 413 for oversized
//     bodies (rejected before decoding); 409 when an Idempotency-Key is
//     reused with a different spec.
//   - X-Rvp-Deadline (unix microseconds) propagates the caller's
//     end-to-end deadline: expired at submit is rejected, a queued job
//     whose deadline passes is abandoned as failed/timeout without
//     running, and a running job is cancelled at the deadline.
//   - An Idempotency-Key header makes submission retry-safe: the same
//     key always maps to the same job, so a client that times out and
//     retries cannot double-submit.
//   - GET /v1/jobs/{id} returns the job's JobStatus (404 unknown).
//     With ?wait=<duration> (Go syntax, e.g. 2.5s; capped at 30s) it
//     long-polls: a non-terminal job is answered once its terminal
//     record is durable, when the wait passes (with the current
//     record), or when the daemon finishes draining. A malformed or
//     negative wait is 400. Without ?wait= the answer is immediate.
//   - ?after=N (N >= 0, the last event sequence number seen) follows
//     the job's lifecycle: queued, started, progress heartbeats with
//     committed/IPC, requeued, done/failed. The answer's "events" holds
//     the job's bounded event ring past N, and a wait also ends as
//     soon as there is one. A terminal job's events end with its
//     terminal event, made from the record if the feed lacks it (after
//     a restart); none follow it. A malformed or negative after is 400.
//   - GET /v1/jobs/{id}/trace returns the daemon-side spans of the
//     job's trace (?format=chrome for a chrome://tracing file). Clients
//     propagate trace identity via X-Rvp-Trace-Id/X-Rvp-Parent-Span.
//   - GET /healthz is liveness (200 while the process serves).
//   - GET /readyz is readiness: 200 + queue stats while accepting, 503
//     while draining.
//   - GET /metrics is the obs registry in Prometheus text format.
//
// Every state transition of an accepted job is fsync'd to a CRC-checked
// job store before it is acknowledged, so accepted jobs survive a
// restart: on startup, queued and interrupted jobs are re-enqueued and
// their write-ahead journal (keyed by the normalized spec digest)
// replays every finished cell; a cell the restart interrupted
// re-simulates from its start, so one job loses at most the simulation
// of its unfinished cells.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"rvpsim/internal/exp"
	"rvpsim/internal/simerr"
)

// Job states. The lifecycle is queued -> running -> succeeded|failed,
// with running -> queued on a drain or crash (the job is requeued and
// resumed by the next daemon).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
)

// JobStatus is the wire representation of one job. It is also the job
// store's on-disk record: the latest record per ID wins on replay.
type JobStatus struct {
	ID string `json:"id"`
	// Key is the client's idempotency key, when one was supplied.
	Key   string      `json:"key,omitempty"`
	State string      `json:"state"`
	Spec  exp.JobSpec `json:"spec"`
	// Attempts counts how many times the job entered a worker, across
	// daemon restarts.
	Attempts int            `json:"attempts,omitempty"`
	Result   *exp.JobResult `json:"result,omitempty"`
	Error    *ErrorInfo     `json:"error,omitempty"`
	// TraceID identifies the job's distributed trace (client-supplied
	// via X-Rvp-Trace-Id, or daemon-assigned).
	TraceID string `json:"trace_id,omitempty"`
	// DeadlineUS is the caller's propagated deadline (X-Rvp-Deadline,
	// unix microseconds; 0 none). The daemon abandons queued jobs past
	// it and cancels running ones at it.
	DeadlineUS int64 `json:"deadline_us,omitempty"`
	// Flight is the flight recorder's dump, present only on failed jobs:
	// the most recent events leading up to the failure.
	Flight *FlightRecord `json:"flight,omitempty"`
	// Events answers a status request's ?after=; the store never has it.
	Events []JobEvent `json:"events,omitempty"`
}

// FlightRecord is the bounded pre-failure event history embedded in a
// failed job's record. It identifies the spec only by digest — the
// events themselves carry no spec fields.
type FlightRecord struct {
	SpecDigest string     `json:"spec_digest"`
	Events     []JobEvent `json:"events"`
}

// Terminal reports whether the state is final.
func (j JobStatus) Terminal() bool {
	return j.State == StateSucceeded || j.State == StateFailed
}

// ErrorInfo is the typed failure payload of a failed job, flattened
// from the simulator's error taxonomy so clients classify failures
// without parsing message strings.
type ErrorInfo struct {
	Message  string `json:"message"`
	Stage    string `json:"stage,omitempty"`
	Workload string `json:"workload,omitempty"`
	// Transient marks failures the simulator classified as transient
	// (the run was already retried once and still failed).
	Transient bool `json:"transient,omitempty"`
	// Timeout marks per-job deadline expiries.
	Timeout bool `json:"timeout,omitempty"`
}

// errorInfo flattens err into the wire payload.
func errorInfo(err error, timeout bool) *ErrorInfo {
	info := &ErrorInfo{
		Message:   err.Error(),
		Transient: simerr.IsTransient(err),
		Timeout:   timeout,
	}
	var se *simerr.SimError
	if errors.As(err, &se) {
		info.Stage = se.Stage
		info.Workload = se.Workload
	}
	return info
}

// apiError is the JSON error body for every non-2xx response.
type apiError struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// DecodeJobRequest parses and validates one POST /v1/jobs body. The
// decoder is strict — unknown fields and trailing data are rejected —
// so malformed automation fails loudly instead of silently running a
// default job. The returned spec is already normalized against
// defaultInsts. It never panics on any input (see FuzzJobRequest).
func DecodeJobRequest(body []byte, defaultInsts uint64) (exp.JobSpec, error) {
	var spec exp.JobSpec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return exp.JobSpec{}, fmt.Errorf("invalid job request: %w", err)
	}
	if dec.More() {
		return exp.JobSpec{}, errors.New("invalid job request: trailing data after JSON object")
	}
	spec.Normalize(defaultInsts)
	if err := spec.Validate(); err != nil {
		return exp.JobSpec{}, err
	}
	return spec, nil
}
