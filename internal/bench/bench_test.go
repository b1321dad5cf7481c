package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"rvpsim/internal/obs"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// TestBenchmarkFile checks BENCHMARK.json against the code and the
// limits it must keep.
func TestBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if want := []string{"cmd/rvpbench", "internal/bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths = %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds = %d, want rvpbench's default %d", bf.RunSeconds, DefaultSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("%s %q: malformed or repeated name", kind, name)
		}
		seen[name] = true
		if unit == "" || len(unit) > 16 {
			t.Errorf("%s %q: unit %q", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %q: better %q", kind, name, better)
		}
	}
	var code []string
	for _, w := range Workloads {
		code = append(code, w.Name)
	}
	for i, w := range bf.Workloads {
		check("workload", w.Name, "-", "lower")
		if i >= len(code) || w.Name != code[i] {
			t.Errorf("workload %d is %q; the code runs %v", i, w.Name, code)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why has %d characters", w.Name, len(w.Why))
		}
	}
	// 0.25 is the largest bound BENCHMARK.json admits. It is not a target:
	// README.md records the spreads each bound was set from.
	var setupBound, maxBound float64
	for _, m := range bf.EndToEnd {
		check("end-to-end metric", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must be present and the largest (%v)", setupBound, maxBound)
	}
	for _, m := range bf.PerLayer {
		check("per-layer metric", m.Name, m.Unit, m.Better)
	}
}

// TestSmoke runs every workload and the traced run once at tiny budgets
// and checks that each emits exactly the metrics BENCHMARK.json declares,
// finite and in the declared unit, with every output correct.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	o := Options{Budget: SmokeBudget(), Seed: 1, Seconds: 0.3, Dir: t.TempDir()}
	ctx := context.Background()
	type decl struct{ name, unit string }
	var e2e, layers []decl
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, decl{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, decl{m.Name, m.Unit})
	}
	checkReport := func(t *testing.T, rep *Report, want []decl) {
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("correct=%v failed=%d attempted=%d notes=%q", rep.Correct, rep.Failed, rep.Attempted, rep.Notes)
		}
		declared := map[string]bool{}
		for _, d := range want {
			declared[d.name] = true
			m, ok := rep.Metrics[d.name]
			switch {
			case !ok:
				t.Errorf("%s not emitted", d.name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s = %v", d.name, m.Value)
			case m.Unit != d.unit:
				t.Errorf("%s in %q, declared %q", d.name, m.Unit, d.unit)
			}
		}
		for name := range rep.Metrics {
			if !declared[name] {
				t.Errorf("%s emitted but not declared in BENCHMARK.json", name)
			}
		}
	}
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := Run(ctx, w.Name, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, e2e)
		})
	}
	t.Run("trace", func(t *testing.T) {
		o := o
		o.Tracer = obs.NewTracer("rvpbench", 1<<20)
		rep, err := Trace(ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, layers)
		// The shares sum to 1 by construction; a layer whose replay, less
		// the empty loop, came out negative or above the whole pipeline
		// would show as a share outside [0, 1].
		for _, l := range []string{"emu", "mem", "bpred", "core", "pipeline.self"} {
			if v := rep.Metrics[l+".share"].Value; v < 0 || v > 1 {
				t.Errorf("%s.share = %v, outside [0, 1]", l, v)
			}
		}
		var chrome bytes.Buffer
		if err := obs.WriteChromeSpans(&chrome, o.Tracer.Spans()); err != nil || o.Tracer.Len() == 0 {
			t.Errorf("chrome trace of %d spans: %v", o.Tracer.Len(), err)
		}
	})
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(n=4), which judges the benchmark's spread.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 2}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
