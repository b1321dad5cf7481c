package exp

import (
	"encoding/json"
	"testing"

	"rvpsim/internal/stats"
)

// gridDrivers are the drivers that build their tables from a grid of
// simulations (every result driver but Figure 1's profiler table), in
// the order cmd/experiments runs them.
var gridDrivers = []struct {
	name string
	run  func(*Runner) ([]*stats.Table, error)
}{
	{"fig3", one((*Runner).Figure3)},
	{"fig4", one((*Runner).Figure4)},
	{"fig5", one((*Runner).Figure5)},
	{"fig6", one((*Runner).Figure6)},
	{"tab2", func(r *Runner) ([]*stats.Table, error) {
		cov, acc, err := r.Table2()
		return []*stats.Table{cov, acc}, err
	}},
	{"fig7", one((*Runner).Figure7)},
	{"fig8", one((*Runner).Figure8)},
	{"storage", one((*Runner).StorageTable)},
	{"threshold", one((*Runner).ThresholdTable)},
}

func one(f func(*Runner) (*stats.Table, error)) func(*Runner) ([]*stats.Table, error) {
	return func(r *Runner) ([]*stats.Table, error) {
		t, err := f(r)
		return []*stats.Table{t}, err
	}
}

// TestExperimentsDeterministic: the same driver run twice (including the
// parallel path) renders byte-identical tables — no map-iteration or
// scheduling dependence may leak into results.
func TestExperimentsDeterministic(t *testing.T) {
	opts := Options{Insts: 60_000, ProfileInsts: 30_000, Threshold: 0.80, Parallel: true}
	a, err := NewRunner(opts).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(opts).Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("Figure5 not deterministic:\n%s\nvs\n%s", a, b)
	}

	c, err := NewRunner(opts).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRunner(opts).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if c.String() != d.String() {
		t.Errorf("Figure1 not deterministic:\n%s\nvs\n%s", c, d)
	}
}

// TestSerialMatchesParallel: the Parallel option is purely a scheduling
// choice; results must be identical to the last bit. The tables are
// compared as full-precision JSON, so an average summed in completion
// order rather than workload order fails here even where String's
// rounding hides it.
func TestSerialMatchesParallel(t *testing.T) {
	par := Options{Insts: 60_000, ProfileInsts: 30_000, Threshold: 0.80, Parallel: true}
	ser := par
	ser.Parallel = false
	for _, d := range gridDrivers {
		switch d.name {
		case "fig6", "tab2", "storage", "threshold":
		default:
			continue
		}
		a, err := d.run(NewRunner(par))
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.run(NewRunner(ser))
		if err != nil {
			t.Fatal(err)
		}
		if ja, jb := tablesJSON(t, a), tablesJSON(t, b); ja != jb {
			t.Errorf("%s: parallel vs serial differ:\n%s\nvs\n%s", d.name, ja, jb)
		}
	}
}

// tablesJSON renders tables at full precision, so an average summed in
// a different order shows even where String's rounding hides it.
func tablesJSON(t *testing.T, tables []*stats.Table) string {
	t.Helper()
	b, err := json.Marshal(tables)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
