package exp

import (
	"encoding/json"
	"testing"

	"rvpsim/internal/stats"
)

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
