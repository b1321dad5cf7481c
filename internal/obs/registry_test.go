package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", []int64{2, 4, 8})
	// Bounds are inclusive upper bounds; one overflow bucket follows.
	cases := []struct {
		v    int64
		want int
	}{
		{-1, 0}, {0, 0}, {1, 0}, {2, 0},
		{3, 1}, {4, 1},
		{5, 2}, {8, 2},
		{9, 3}, {1 << 40, 3},
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	wantCounts := []int64{4, 2, 2, 2}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Errorf("snapshot counts[%d] = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 10 {
		t.Errorf("snapshot count = %d, want 10", s.Count)
	}
	var wantSum int64
	for _, c := range cases {
		wantSum += c.v
	}
	if s.Sum != wantSum {
		t.Errorf("snapshot sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestExpBucketsDistinctAscending(t *testing.T) {
	b := ExpBuckets(1, 1.3, 12)
	if len(b) != 12 {
		t.Fatalf("len = %d, want 12", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Errorf("bounds not strictly ascending at %d: %v", i, b)
		}
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "help")
	c2 := r.Counter("c", "ignored on re-register")
	if c1 != c2 {
		t.Error("re-registering a counter should return the same instrument")
	}
	h1 := r.Histogram("h", "", []int64{1, 2})
	h2 := r.Histogram("h", "", []int64{1, 2})
	if h1 != h2 {
		t.Error("re-registering a histogram should return the same instrument")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering histogram with different bounds should panic")
			}
		}()
		r.Histogram("h", "", []int64{1, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a counter name as a gauge should panic")
			}
		}()
		r.Gauge("c", "")
	}()
}

func TestRegistryConcurrentSafety(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker also registers names of its own, so concurrent
			// registrations of different names race to publish the table.
			for i := 0; i < 20; i++ {
				r.Counter(fmt.Sprintf("w%d_%d_total", w, i), "").Inc()
			}
			c := r.Counter("shared_total", "")
			h := r.Histogram("shared_hist", "", []int64{8, 64})
			g := r.Gauge("shared_gauge", "")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				g.Set(int64(i))
			}
		}()
	}
	// Concurrent readers exercise Snapshot and the exporter while
	// writers are active; the race detector checks safety.
	for i := 0; i < 10; i++ {
		r.Snapshot()
		_ = r.WritePrometheus(&strings.Builder{})
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_hist", "", []int64{8, 64}).Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got, want := len(r.Snapshot().Counters), 1+workers*20; got != want {
		t.Errorf("%d counters registered, want %d", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total", "number of runs").Add(3)
	r.Gauge("occupancy", "").Set(-2)
	h := r.Histogram("lat", "latency", []int64{1, 4})
	h.Observe(1)
	h.Observe(2)
	h.Observe(9)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"# HELP runs_total number of runs\n",
		"# TYPE runs_total counter\nruns_total 3\n",
		"# TYPE occupancy gauge\noccupancy -2\n",
		"# TYPE lat histogram\n",
		"lat_bucket{le=\"1\"} 1\n",
		"lat_bucket{le=\"4\"} 2\n",
		"lat_bucket{le=\"+Inf\"} 3\n",
		"lat_sum 12\n",
		"lat_count 3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, got)
		}
	}
	// Registration order is stable: counter before gauge before histogram.
	if strings.Index(got, "runs_total") > strings.Index(got, "occupancy") {
		t.Error("exposition should preserve registration order")
	}
}
