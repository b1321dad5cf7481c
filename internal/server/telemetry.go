package server

import (
	"sync"
	"time"
)

// This file is the service's live-telemetry spine: every accepted job
// gets a bounded event feed. A status wait with ?after=N answers with
// its ring's events past N, the flight recorder dumps the ring into a
// failed job's record, and every status wait blocks on its one wake
// channel.

// Job event types, in lifecycle order. "progress" repeats; the others
// appear at most once per attempt.
const (
	EvQueued   = "queued"
	EvStarted  = "started"
	EvProgress = "progress"
	EvRequeued = "requeued"
	EvDone     = "done"
	EvFailed   = "failed"
)

// terminalEvent reports whether typ ends a job's events.
func terminalEvent(typ string) bool { return typ == EvDone || typ == EvFailed }

// JobEvent is one entry in a job's event stream. Seq is the job-scoped
// sequence number (1-based, dense) that a status wait's ?after= resumes
// from. Events carry no job spec — a flight record embedded in
// a job status must not duplicate (or leak) the spec, which the record
// already identifies by digest.
type JobEvent struct {
	Seq    int64  `json:"seq"`
	Type   string `json:"type"`
	TimeUS int64  `json:"time_us"`
	Job    string `json:"job"`
	// Attempt is the job attempt the event belongs to (started/requeued/
	// done/failed).
	Attempt int `json:"attempt,omitempty"`
	// Label names the simulation cell ("workload/predictor") a progress
	// event came from.
	Label string `json:"label,omitempty"`
	// Committed/Cycles/IPC are the live heartbeat payload.
	Committed uint64  `json:"committed,omitempty"`
	Cycles    int64   `json:"cycles,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	// Error carries the failure message on "failed" events.
	Error string `json:"error,omitempty"`
}

// jobFeed is one job's bounded event history plus its wake channel.
type jobFeed struct {
	mu   sync.Mutex
	job  string
	cap  int
	seq  int64
	ring []JobEvent // oldest first, len <= cap
	// wake is closed and replaced by each publish and record append.
	wake       chan struct{}
	terminal   bool
	terminalAt time.Time
}

func newJobFeed(job string, capacity int) *jobFeed {
	return &jobFeed{job: job, cap: capacity, wake: make(chan struct{})}
}

// publish assigns the next sequence number, records ev in the ring
// (evicting the oldest past capacity), and wakes every waiter. Nothing
// is published after a terminal event.
func (f *jobFeed) publish(ev JobEvent) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.terminal {
		return // nothing follows done/failed
	}
	f.seq++
	ev.Seq = f.seq
	ev.Job = f.job
	if ev.TimeUS == 0 {
		ev.TimeUS = time.Now().UnixMicro()
	}
	if len(f.ring) >= f.cap {
		copy(f.ring, f.ring[1:])
		f.ring = f.ring[:len(f.ring)-1]
	}
	f.ring = append(f.ring, ev)
	if terminalEvent(ev.Type) {
		f.terminal = true
		f.terminalAt = time.Now()
	}
	close(f.wake)
	f.wake = make(chan struct{})
}

// since returns the ring events after seq `after` (none for a negative
// after: a wait that is not watching), whether the feed has published
// its terminal event, and the wake channel, under one lock, so no event
// can fall between them.
func (f *jobFeed) since(after int64) ([]JobEvent, bool, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var evs []JobEvent
	for _, ev := range f.ring {
		if after >= 0 && ev.Seq > after {
			evs = append(evs, ev)
		}
	}
	return evs, f.terminal, f.wake
}

// telemetry owns the per-job feeds. Feeds for terminal jobs are kept
// for late watchers (replay still works after completion) but bounded:
// past maxFeeds, the oldest-terminal feed is evicted first, so the hub
// cannot grow without bound on a long-lived daemon. Live feeds are
// never evicted — their population is already bounded by queue depth
// plus the worker count.
type telemetry struct {
	mu       sync.Mutex
	feeds    map[string]*jobFeed
	ringCap  int
	maxFeeds int
}

func newTelemetry(ringCap, maxFeeds int) *telemetry {
	return &telemetry{feeds: map[string]*jobFeed{}, ringCap: ringCap, maxFeeds: maxFeeds}
}

// feed returns (creating if needed) the feed for job id.
func (t *telemetry) feed(id string) *jobFeed {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.feeds[id]; ok {
		return f
	}
	if len(t.feeds) >= t.maxFeeds {
		t.evictLocked()
	}
	f := newJobFeed(id, t.ringCap)
	t.feeds[id] = f
	return f
}

// lookup returns the feed for id without creating one.
func (t *telemetry) lookup(id string) (*jobFeed, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, ok := t.feeds[id]
	return f, ok
}

// evictLocked drops the feed whose job finished longest ago. When no
// feed is terminal the hub grows past maxFeeds — correctness (live
// jobs keeping their feeds) beats the bound.
func (t *telemetry) evictLocked() {
	var victim string
	var oldest time.Time
	for id, f := range t.feeds {
		f.mu.Lock()
		term, at := f.terminal, f.terminalAt
		f.mu.Unlock()
		if term && (victim == "" || at.Before(oldest)) {
			victim, oldest = id, at
		}
	}
	if victim != "" {
		delete(t.feeds, victim)
	}
}

// wake wakes the waiters on job id's feed, if it has one (a wait takes
// its channel from the feed): the job store calls it after each append.
func (t *telemetry) wake(id string) {
	if f, ok := t.lookup(id); ok {
		f.mu.Lock()
		close(f.wake)
		f.wake = make(chan struct{})
		f.mu.Unlock()
	}
}
