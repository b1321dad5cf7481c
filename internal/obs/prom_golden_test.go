package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestPrometheusExpositionGolden pins the exact text exposition the
// /metrics endpoint serves — one instrument of every kind — so an
// accidental format change (spacing, label quoting, bucket cumulation) is
// caught byte-for-byte.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("srv_jobs_submitted_total", "jobs accepted into the queue")
	c.Add(7)
	g := r.Gauge("srv_queue_depth", "jobs currently queued")
	g.Set(3)
	h := r.Histogram("srv_queue_wait_ms", "queue wait per job, milliseconds", []int64{2, 4, 8})
	h.Observe(1)
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}

	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			golden, buf.String(), string(want))
	}
}
