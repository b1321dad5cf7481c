package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
	"testing"

	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/workloads"

	"errors"
)

func TestNormalizeDefaults(t *testing.T) {
	var s SweepSpec
	s.Normalize(7_000)
	if got, want := len(s.Workloads), len(workloads.Names()); got != want {
		t.Errorf("workloads defaulted to %d, want all %d", got, want)
	}
	if len(s.Predictors) == 0 {
		t.Errorf("predictors not defaulted")
	}
	if len(s.Recoveries) != 1 || s.Recoveries[0] != "selective" {
		t.Errorf("recoveries = %v, want [selective]", s.Recoveries)
	}
	if s.Insts != 7_000 {
		t.Errorf("insts = %d, want the coordinator default 7000", s.Insts)
	}
	// Cells take the job spec's own profiling defaults.
	if js := s.Cells()[0].Spec; js.ProfileInsts != 7_000/4 || js.Threshold != 0.80 {
		t.Errorf("cell profile insts = %d, threshold = %v; want insts/4 and 0.80", js.ProfileInsts, js.Threshold)
	}
	if !strings.HasPrefix(s.Name, "Fleet sweep ") {
		t.Errorf("name = %q, want defaulted from the sweep ID", s.Name)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("normalized spec fails validation: %v", err)
	}
}

func TestValidateRejectsBadAxes(t *testing.T) {
	cases := []SweepSpec{
		{Workloads: []string{"nope"}, Predictors: []string{"rvp"}, Recoveries: []string{"selective"}},
		{Workloads: []string{"go"}, Predictors: []string{"psychic"}, Recoveries: []string{"selective"}},
		{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Recoveries: []string{"prayer"}},
		{Workloads: []string{"go", "go"}, Predictors: []string{"rvp"}, Recoveries: []string{"selective"}},
		{}, // empty axes: must normalize first
	}
	for i, s := range cases {
		s.Insts = 1_000
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, s)
			continue
		}
		if !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("case %d: error %v does not wrap ErrConfig", i, err)
		}
	}
}

func TestSweepIDStableAndNormalizeIdempotent(t *testing.T) {
	a := SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp", "none"}, Insts: 10_000}
	b := a
	a.Normalize(0)
	b.Normalize(0)
	if a.ID() != b.ID() {
		t.Errorf("same spec, different IDs: %s vs %s", a.ID(), b.ID())
	}
	a2 := a
	a2.Normalize(0)
	if a2.ID() != a.ID() {
		t.Errorf("Normalize is not idempotent: %s vs %s", a2.ID(), a.ID())
	}
	c := a
	c.Insts = 20_000
	c.Normalize(0)
	if c.ID() == a.ID() {
		t.Errorf("different budgets, same sweep ID %s", a.ID())
	}
}

func TestCellsDigestOrderedAndComplete(t *testing.T) {
	s := SweepSpec{
		Workloads:  []string{"go", "li", "perl"},
		Predictors: []string{"rvp", "none"},
		Recoveries: []string{"selective", "refetch"},
		Insts:      10_000,
	}
	s.Normalize(0)
	cells := s.Cells()
	if len(cells) != 3*2*2 {
		t.Fatalf("cells = %d, want 12", len(cells))
	}
	if !sort.SliceIsSorted(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID }) {
		t.Errorf("cells are not digest-sorted")
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID] {
			t.Errorf("duplicate cell digest %s", c.ID)
		}
		seen[c.ID] = true
		if c.ID != c.Spec.Digest() {
			t.Errorf("cell ID %s != spec digest %s", c.ID, c.Spec.Digest())
		}
		if err := c.Spec.Validate(); err != nil {
			t.Errorf("cell %s spec invalid: %v", c.ID, err)
		}
	}
}

// fakeStats derives a deterministic, cell-specific result from a digest
// so merge tests do not need a simulator.
func fakeStats(id string) pipeline.Stats {
	return pipeline.Stats{Cycles: 1_000 + int64(id[0]), Committed: 900 + uint64(id[1])}
}

func TestMergeTableByteIdenticalRegardlessOfArrival(t *testing.T) {
	s := SweepSpec{
		Workloads:  []string{"go", "li"},
		Predictors: []string{"rvp", "none"},
		Recoveries: []string{"selective", "refetch"},
		Insts:      10_000,
	}
	s.Normalize(0)
	cells := s.Cells()

	build := func(order []int) string {
		done := map[string]pipeline.Stats{}
		for _, i := range order {
			done[cells[i].ID] = fakeStats(cells[i].ID)
		}
		return MergeTable(s, done, nil).String()
	}
	fwd := make([]int, len(cells))
	rev := make([]int, len(cells))
	for i := range cells {
		fwd[i] = i
		rev[i] = len(cells) - 1 - i
	}
	if a, b := build(fwd), build(rev); a != b {
		t.Errorf("merge depends on arrival order:\n--- forward\n%s--- reverse\n%s", a, b)
	}
	if out := build(fwd); !strings.Contains(out, "rvp@selective") || !strings.Contains(out, "none@refetch") {
		t.Errorf("multi-recovery sweep rows missing pred@recovery labels:\n%s", out)
	}
}

func TestMergeTableMarksMissingAndFailedCells(t *testing.T) {
	s := SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp"}, Recoveries: []string{"selective"}, Insts: 10_000}
	s.Normalize(0)
	cells := s.Cells()
	done := map[string]pipeline.Stats{cells[0].ID: fakeStats(cells[0].ID)}
	failed := map[string]string{cells[1].ID: "worker exploded"}
	out := MergeTable(s, done, failed).String()
	if !strings.Contains(out, "ERR") {
		t.Errorf("failed cell not marked in table:\n%s", out)
	}
	// One of the two cells succeeded, so the average row must exist.
	if !strings.Contains(out, "average") {
		t.Errorf("no average column:\n%s", out)
	}
}

// TestPinnedSweepIdentity pins a sweep ID, a cell ID and the SHA-256 of
// a merged table with one done, one failed and one missing cell. Ledgers
// and idempotency keys name sweeps and cells by these digests, so any
// change to them orphans existing state.
func TestPinnedSweepIdentity(t *testing.T) {
	s := SweepSpec{Workloads: []string{"go", "li", "perl"}, Predictors: []string{"rvp", "none"}, Insts: 10_000}
	s.Normalize(0)
	if got, want := s.ID(), "4f9545390424c51448ce"; got != want {
		t.Errorf("sweep ID = %s, want %s", got, want)
	}
	if got, want := s.cellSpec("li", "none", "selective").Digest(), "30897431ffd7d0f63f27c628"; got != want {
		t.Errorf("cell ID = %s, want %s", got, want)
	}

	m := SweepSpec{Workloads: []string{"go", "li", "perl"}, Predictors: []string{"rvp"}, Insts: 10_000}
	m.Normalize(0)
	li, gocell := m.cellSpec("li", "rvp", "selective").Digest(), m.cellSpec("go", "rvp", "selective").Digest()
	out := MergeTable(m, map[string]pipeline.Stats{li: fakeStats(li)}, map[string]string{gocell: "worker exploded"}).String()
	sum := sha256.Sum256([]byte(out))
	if got, want := hex.EncodeToString(sum[:]), "6610fd754cb2eea556f9ab28fbb64f79d6d6f59cb4efe258f7eec340f55163f8"; got != want {
		t.Errorf("merged table digest = %s, want %s; table:\n%s", got, want, out)
	}
}

func TestReferenceIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("reference runs real simulations; skipped in -short")
	}
	s := SweepSpec{Workloads: []string{"go"}, Predictors: []string{"none", "rvp"}, Insts: 5_000}
	a, err := Reference(context.Background(), s, 2)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	b, err := Reference(context.Background(), s, 1)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if a.String() != b.String() {
		t.Errorf("reference table varies with parallelism:\n%s\nvs\n%s", a.String(), b.String())
	}
}
