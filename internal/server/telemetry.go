package server

import (
	"sync"
	"time"
)

// This file is the service's live-telemetry spine: every accepted job
// gets a bounded event feed that three consumers share. The SSE
// endpoint streams it (with Last-Event-ID replay from the ring), the
// flight recorder dumps it into the job record on failure, and tests
// read it directly. One buffer, three views — the ring is the single
// source of truth for "what happened to this job recently".

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

// terminalEvent reports whether typ ends a job's stream.
func terminalEvent(typ string) bool { return typ == EvDone || typ == EvFailed }

// JobEvent is one entry in a job's event stream. Seq is the job-scoped
// sequence number (1-based, dense) that SSE clients resume from via
// Last-Event-ID. Events carry no job spec — a flight record embedded in
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

// feedSub is one SSE subscriber's delivery channel. The channel is
// buffered to the ring size; a subscriber that falls further behind
// than the ring could replay anyway is closed (never blocked on), and
// the SSE handler resubscribes from its last-seen sequence number.
type feedSub struct {
	ch chan JobEvent
}

// jobFeed is one job's bounded event history plus its live subscribers.
type jobFeed struct {
	mu         sync.Mutex
	job        string
	cap        int
	seq        int64
	ring       []JobEvent // oldest first, len <= cap
	subs       map[*feedSub]struct{}
	terminal   bool
	terminalAt time.Time
}

func newJobFeed(job string, capacity int) *jobFeed {
	return &jobFeed{job: job, cap: capacity, subs: map[*feedSub]struct{}{}}
}

// publish assigns the next sequence number, records ev in the ring
// (evicting the oldest past capacity), and fans it out to subscribers.
// Delivery never blocks: a full subscriber is closed instead, which the
// SSE handler observes as "resubscribe and replay what you missed". A
// terminal event closes every subscriber after delivery.
func (f *jobFeed) publish(ev JobEvent) JobEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.terminal {
		return ev // nothing follows done/failed
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
	for sub := range f.subs {
		select {
		case sub.ch <- ev:
		default:
			close(sub.ch)
			delete(f.subs, sub)
		}
	}
	if terminalEvent(ev.Type) {
		f.terminal = true
		f.terminalAt = time.Now()
		for sub := range f.subs {
			close(sub.ch)
			delete(f.subs, sub)
		}
	}
	return ev
}

// subscribe returns the ring events after seq `after` plus a live
// subscription. The replay and the subscription are atomic with
// respect to publish, so no event can fall between them. For a
// terminal feed the subscription is nil: the replay is the whole
// remaining story.
func (f *jobFeed) subscribe(after int64) ([]JobEvent, *feedSub) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var replay []JobEvent
	for _, ev := range f.ring {
		if ev.Seq > after {
			replay = append(replay, ev)
		}
	}
	if f.terminal {
		return replay, nil
	}
	sub := &feedSub{ch: make(chan JobEvent, f.cap)}
	f.subs[sub] = struct{}{}
	return replay, sub
}

// unsubscribe detaches sub (idempotent; safe after an overflow close).
func (f *jobFeed) unsubscribe(sub *feedSub) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.subs, sub)
}

// events returns a copy of the ring: the flight-recorder read.
func (f *jobFeed) events() []JobEvent {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]JobEvent(nil), f.ring...)
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
// streams staying attached) beats the bound.
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

// publish is the server's one-line event emitter: resolve the feed and
// publish.
func (t *telemetry) publish(id string, ev JobEvent) {
	t.feed(id).publish(ev)
}
