package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the job-tracing half of the observability layer: spans
// with trace/parent identity and monotonic durations, a bounded
// concurrent-safe collector (Tracer), and exporters to Chrome
// trace_event JSON and JSON Lines. The simulator's commit stream
// (pipeline.TraceRecord, DESIGN §7) answers "what did one simulated
// instruction do"; spans answer "where did one job's wall-clock time
// go" — admission, queue wait, worker, profiling pass, simulation run —
// across the client and daemon processes that share one trace ID.

// SpanContext names a position in a trace: the trace ID plus the span
// that new children should parent under. The zero value means "no
// trace"; spans started under it become trace roots.
type SpanContext struct {
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// Span is one finished, timed operation within a trace. StartUS is
// wall-clock microseconds since the Unix epoch (the only reference two
// processes share); DurUS is measured against the monotonic clock, so
// a span's duration is immune to wall-clock steps.
type Span struct {
	Trace   string            `json:"trace"`
	ID      string            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Service string            `json:"service"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// NewTraceID returns a fresh random 16-hex-digit trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand cannot fail on supported platforms.
		panic("obs: crypto/rand: " + err.Error())
	}
	return "t" + hex.EncodeToString(b[:])
}

// Tracer is a bounded, concurrent-safe span collector for one service
// ("rvpc", "rvpd"). Spans past the capacity are dropped (and counted)
// rather than growing without bound: a Tracer can sit on a daemon's hot
// serve path for the life of a job without becoming a memory leak.
// A nil *Tracer is a valid no-op collector.
type Tracer struct {
	service string
	cap     int
	prefix  string // random per-tracer prefix keeping span IDs unique across restarts
	seq     atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTracer builds a collector for service retaining at most capacity
// spans (capacity <= 0 takes 512).
func NewTracer(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 512
	}
	var b [3]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("obs: crypto/rand: " + err.Error())
	}
	return &Tracer{service: service, cap: capacity, prefix: hex.EncodeToString(b[:])}
}

// Service returns the tracer's service name ("" on nil).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

func (t *Tracer) nextID() string {
	return fmt.Sprintf("s%s-%d", t.prefix, t.seq.Add(1))
}

// Start opens a span under parent (zero SpanContext starts a new trace
// root with a fresh trace ID). The returned ActiveSpan must be End()ed
// to be recorded; nil Tracers return nil, and every ActiveSpan method
// is nil-safe, so call sites need no tracing-enabled branches.
func (t *Tracer) Start(parent SpanContext, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	trace := parent.Trace
	if trace == "" {
		trace = NewTraceID()
	}
	return &ActiveSpan{
		t:     t,
		start: time.Now(),
		span: Span{
			Trace:   trace,
			ID:      t.nextID(),
			Parent:  parent.Span,
			Service: t.service,
			Name:    name,
		},
	}
}

// Record adds an already-timed span (an operation whose start predates
// the decision to trace it, e.g. a queue wait measured from an enqueue
// timestamp). It returns the recorded span's context for children.
func (t *Tracer) Record(parent SpanContext, name string, start time.Time, dur time.Duration, attrs map[string]string) SpanContext {
	if t == nil {
		return parent
	}
	sp := Span{
		Trace:   parent.Trace,
		ID:      t.nextID(),
		Parent:  parent.Span,
		Service: t.service,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   dur.Microseconds(),
		Attrs:   attrs,
	}
	if sp.Trace == "" {
		sp.Trace = NewTraceID()
	}
	t.add(sp)
	return SpanContext{Trace: sp.Trace, Span: sp.ID}
}

func (t *Tracer) add(sp Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.cap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sp)
}

// Spans returns a copy of the collected spans, in completion order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped reports how many spans the capacity bound discarded.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len reports how many spans are retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ActiveSpan is a span in progress. It is owned by the goroutine that
// started it; SetAttr/End are not for concurrent use on one span
// (distinct spans are independent). All methods are nil-receiver-safe.
type ActiveSpan struct {
	t     *Tracer
	start time.Time
	span  Span
	ended bool
}

// Context returns the span's position for parenting children.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: a.span.Trace, Span: a.span.ID}
}

// SetAttr attaches a key/value attribute.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil {
		return
	}
	if a.span.Attrs == nil {
		a.span.Attrs = map[string]string{}
	}
	a.span.Attrs[k] = v
}

// End closes the span and hands it to the tracer (idempotent).
func (a *ActiveSpan) End() {
	if a == nil || a.ended {
		return
	}
	a.ended = true
	a.span.StartUS = a.start.UnixMicro()
	a.span.DurUS = time.Since(a.start).Microseconds()
	a.t.add(a.span)
}

// EndErr closes the span, attaching err (when non-nil) as an "error"
// attribute first.
func (a *ActiveSpan) EndErr(err error) {
	if a == nil {
		return
	}
	if err != nil {
		a.SetAttr("error", err.Error())
	}
	a.End()
}

// ConnectedTrace reports whether spans form one connected tree: exactly
// one root (empty parent) and every other span's parent present in the
// set. An empty slice is not connected.
func ConnectedTrace(spans []Span) bool {
	if len(spans) == 0 {
		return false
	}
	ids := make(map[string]bool, len(spans))
	for _, s := range spans {
		ids[s.ID] = true
	}
	roots := 0
	for _, s := range spans {
		if s.Parent == "" {
			roots++
		} else if !ids[s.Parent] {
			return false
		}
	}
	return roots == 1
}

// WriteSpansJSONL writes one span per line (JSON Lines): the flight
// recorder / scripting format.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeSpanEvent is one complete ("X") trace_event.
type chromeSpanEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeMetaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChromeSpans renders spans as a Chrome trace_event JSON array
// loadable in chrome://tracing or https://ui.perfetto.dev. Each service
// becomes one "process"; within a service, overlapping spans are packed
// greedily onto non-overlapping lanes ("threads") so concurrent jobs
// render side by side. Timestamps are the spans' wall-clock
// microseconds, which is what lets client and daemon spans of one trace
// line up on a shared axis.
func WriteChromeSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	enc := func(v any, first bool) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = bw.Write(data)
		return err
	}

	// Stable service -> pid mapping in first-seen order.
	var services []string
	pids := map[string]int{}
	for _, s := range spans {
		if _, ok := pids[s.Service]; !ok {
			pids[s.Service] = len(services) + 1
			services = append(services, s.Service)
		}
	}

	first := true
	for _, svc := range services {
		if err := enc(chromeMetaEvent{
			Name: "process_name", Ph: "M", PID: pids[svc], TID: 0,
			Args: map[string]string{"name": svc},
		}, first); err != nil {
			return err
		}
		first = false
	}

	// Greedy lane packing per service: sort by start, place each span on
	// the first lane whose previous span has ended.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].StartUS < spans[order[b]].StartUS })
	laneEnds := map[string][]int64{} // service -> per-lane last end time
	for _, i := range order {
		s := spans[i]
		lanes := laneEnds[s.Service]
		lane := -1
		for l, end := range lanes {
			if s.StartUS >= end {
				lane = l
				break
			}
		}
		if lane == -1 {
			lane = len(lanes)
			lanes = append(lanes, 0)
		}
		end := s.StartUS + s.DurUS
		if end == s.StartUS {
			end++ // zero-length spans still occupy their lane slot
		}
		lanes[lane] = end
		laneEnds[s.Service] = lanes

		args := map[string]string{"id": s.ID, "trace": s.Trace}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		if err := enc(chromeSpanEvent{
			Name: s.Name, Cat: s.Service, Ph: "X",
			PID: pids[s.Service], TID: lane,
			TS: s.StartUS, Dur: s.DurUS, Args: args,
		}, first); err != nil {
			return err
		}
		first = false
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
