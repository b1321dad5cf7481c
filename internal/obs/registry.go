// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms) with a Prometheus text
// exposition exporter, request spans with Chrome trace_event and JSONL
// exporters, run manifests, a progress heartbeat, and pprof capture
// helpers for the experiment harness. Per-instruction commit records are
// the pipeline's (pipeline.TraceRecord), and so are their writers.
//
// Instruments are updated with single atomic adds and allocate nothing
// after registration. The timing simulator keeps its own plain Stats
// while it runs and adds them to a registry once, when the run ends;
// nothing in this package sits on its per-instruction path.
//
// Concurrency contract: every instrument method and Registry lookup is
// safe for concurrent use. Counters and histograms are monotone; values
// accumulate across runs that share a Registry. Snapshots are internally
// consistent per instrument but are not a cross-instrument atomic cut.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc raises the gauge by one (a resource came up).
func (g *Gauge) Inc() { g.v.Add(1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bounds are inclusive
// upper bounds in ascending order; one extra overflow bucket (+Inf) is
// implicit. Buckets never change after registration, so observations are
// a bucket search plus two atomic adds.
type Histogram struct {
	name   string
	help   string
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Int64
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Bounds returns the bucket upper bounds (not to be mutated).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// bucket returns the index of the bucket v falls into.
func (h *Histogram) bucket(v int64) int {
	// Latencies cluster in the low buckets; a linear scan beats binary
	// search for the common case and is branch-predictor friendly.
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.counts[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// ExpBuckets returns n exponential bucket bounds: start, start*factor,
// ... rounded up to distinct integers.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	out := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for len(out) < n {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// Registry holds named instruments. Registration is idempotent: asking
// for an existing name returns the existing instrument (histograms must
// re-state identical bounds). Lookups never block: the name table is an
// immutable map published through an atomic pointer, and registering a
// new name copies it and swaps the copy in with compare-and-swap. Parallel
// simulators publishing their runs at the same moment therefore never
// wait on one another; hot code should still hold the returned
// instrument rather than the registry.
type Registry struct {
	tab atomic.Pointer[regTable]
}

// regTable is one immutable generation of a registry's name table.
type regTable struct {
	order []string       // names in registration order
	inst  map[string]any // *Counter, *Gauge or *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.tab.Store(&regTable{inst: map[string]any{}})
	return r
}

// instrument returns the instrument registered under name, registering
// mk's result when the name is new. kind names the expected instrument
// type for the panic a clashing registration raises.
func (r *Registry) instrument(name, kind string, mk func() any) any {
	var made any
	for {
		t := r.tab.Load()
		if v, ok := t.inst[name]; ok {
			if kindOf(v) != kind {
				panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, kindOf(v), kind))
			}
			return v
		}
		if made == nil {
			made = mk()
		}
		next := &regTable{order: append(t.order[:len(t.order):len(t.order)], name), inst: make(map[string]any, len(t.inst)+1)}
		for k, v := range t.inst {
			next.inst[k] = v
		}
		next.inst[name] = made
		if r.tab.CompareAndSwap(t, next) {
			return made
		}
	}
}

func kindOf(v any) string {
	switch v.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	}
	return "histogram"
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.instrument(name, "counter", func() any { return &Counter{name: name, help: help} }).(*Counter)
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.instrument(name, "gauge", func() any { return &Gauge{name: name, help: help} }).(*Gauge)
}

// Histogram returns (registering if needed) the named histogram. A
// second registration must use the same bounds.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bound")
	}
	if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bounds[i] < bounds[j] }) {
		panic(fmt.Sprintf("obs: histogram %s: bounds not strictly ascending", name))
	}
	h := r.instrument(name, "histogram", func() any {
		return &Histogram{
			name:   name,
			help:   help,
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}).(*Histogram)
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
	}
	for i, b := range bounds {
		if h.bounds[i] != b {
			panic(fmt.Sprintf("obs: histogram %s re-registered with different bounds", name))
		}
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for n, v := range r.tab.Load().inst {
		switch v := v.(type) {
		case *Counter:
			s.Counters[n] = v.Value()
		case *Gauge:
			s.Gauges[n] = v.Value()
		case *Histogram:
			s.Histograms[n] = v.Snapshot()
		}
	}
	return s
}

// WritePrometheus renders every instrument in Prometheus text exposition
// format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	t := r.tab.Load()
	for _, name := range t.order {
		var help, typ string
		switch v := t.inst[name].(type) {
		case *Counter:
			help, typ = v.help, "counter"
		case *Gauge:
			help, typ = v.help, "gauge"
		case *Histogram:
			help, typ = v.help, "histogram"
		}
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
			return err
		}
		var err error
		switch v := t.inst[name].(type) {
		case *Counter:
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Gauge:
			_, err = fmt.Fprintf(w, "%s %d\n", name, v.Value())
		case *Histogram:
			err = writeHistogram(w, name, v.Snapshot())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders cumulative buckets, sum and count.
func writeHistogram(w io.Writer, name string, s HistogramSnapshot) error {
	var cum int64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b, cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, cum, name, s.Sum, name, cum)
	return err
}

// Publisher is implemented by subsystems that publish their internal
// counters once at the end of a run (memory hierarchy, branch predictor,
// value predictors).
type Publisher interface {
	PublishMetrics(*Registry)
}
