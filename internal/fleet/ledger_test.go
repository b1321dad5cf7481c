package fleet

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/testutil/leak"
	"rvpsim/internal/wal"
)

func testSweep(t *testing.T) SweepSpec {
	t.Helper()
	s := SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp"}, Insts: 5_000}
	s.Normalize(0)
	if err := s.Validate(); err != nil {
		t.Fatalf("test sweep invalid: %v", err)
	}
	return s
}

func TestLedgerReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := testSweep(t)
	id := spec.ID()
	cells := spec.Cells()

	l, rp, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if len(rp.Sweeps) != 0 {
		t.Fatalf("fresh ledger replayed %d sweeps", len(rp.Sweeps))
	}
	st := pipeline.Stats{Cycles: 123, Committed: 456}
	recs := []LedgerRecord{
		{Kind: recSweep, Sweep: id, Spec: &spec},
		{Kind: recDone, Sweep: id, Cell: cells[0].ID, Worker: "http://w2", Stats: &st},
		{Kind: recFailed, Sweep: id, Cell: cells[1].ID, Reason: "boom"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
	l.Close()

	l2, rp2, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Truncated != 0 {
		t.Errorf("clean log reported %d truncated records", l2.Truncated)
	}
	if len(rp2.Order) != 1 || rp2.Order[0] != id {
		t.Errorf("order = %v, want [%s]", rp2.Order, id)
	}
	if got := rp2.Sweeps[id].ID(); got != id {
		t.Errorf("replayed spec ID = %s, want %s", got, id)
	}
	if got := rp2.Done[id][cells[0].ID]; got != st {
		t.Errorf("replayed stats = %+v, want %+v", got, st)
	}
	if got := rp2.Failed[id][cells[1].ID]; got != "boom" {
		t.Errorf("replayed failure = %q, want boom", got)
	}
	if rp2.DuplicateDone != 0 {
		t.Errorf("duplicate done = %d on a clean log", rp2.DuplicateDone)
	}
}

func TestLedgerDoneWinsOverFailedAndDuplicatesCounted(t *testing.T) {
	dir := t.TempDir()
	spec := testSweep(t)
	id := spec.ID()
	cell := spec.Cells()[0].ID
	st := pipeline.Stats{Cycles: 9, Committed: 9}

	l, _, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, r := range []LedgerRecord{
		{Kind: recSweep, Sweep: id, Spec: &spec},
		{Kind: recFailed, Sweep: id, Cell: cell, Reason: "first attempt"},
		{Kind: recDone, Sweep: id, Cell: cell, Stats: &st},
		{Kind: recDone, Sweep: id, Cell: cell, Stats: &st}, // idempotent duplicate
		{Kind: recFailed, Sweep: id, Cell: cell, Reason: "late straggler"},
	} {
		if err := l.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	l.Close()

	l2, rp, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if _, failed := rp.Failed[id][cell]; failed {
		t.Errorf("cell still failed after a done record")
	}
	if got := rp.Done[id][cell]; got != st {
		t.Errorf("done stats = %+v, want %+v", got, st)
	}
	if rp.DuplicateDone != 1 {
		t.Errorf("duplicate done = %d, want 1", rp.DuplicateDone)
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	spec := testSweep(t)
	id := spec.ID()
	cells := spec.Cells()
	st := pipeline.Stats{Cycles: 7, Committed: 5}

	path := LedgerPath(dir)
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Append(LedgerRecord{Kind: recSweep, Sweep: id, Spec: &spec}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(LedgerRecord{Kind: recDone, Sweep: id, Cell: cells[0].ID, Worker: "w", Stats: &st}); err != nil {
		t.Fatalf("append: %v", err)
	}
	l.Close()

	// Tear the final record mid-line, as a crash mid-write would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatalf("tear: %v", err)
	}

	l2, rp, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	if l2.Truncated != 1 {
		t.Errorf("truncated = %d, want 1", l2.Truncated)
	}
	if len(rp.Done[id]) != 0 {
		t.Errorf("torn done record survived replay")
	}
	if _, ok := rp.Sweeps[id]; !ok {
		t.Errorf("intact sweep record lost with the torn tail")
	}
	// The repaired log must accept appends and replay cleanly.
	if err := l2.Append(LedgerRecord{Kind: recDone, Sweep: id, Cell: cells[1].ID, Worker: "w2", Stats: &st}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	l2.Close()
	l3, rp3, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen repaired: %v", err)
	}
	defer l3.Close()
	if _, ok := rp3.Done[id][cells[1].ID]; l3.Truncated != 0 || len(rp3.Done[id]) != 1 || !ok {
		t.Errorf("repaired log: truncated=%d done=%v, want 0 and only the repaired append", l3.Truncated, rp3.Done[id])
	}
}

func TestLedgerCorruptMiddleRefusesOpen(t *testing.T) {
	// Corruption strictly before the tail means acknowledged records
	// follow the damage: not a torn append but bitrot or an outside
	// writer. Truncating would silently destroy committed state, so the
	// ledger must refuse with a typed corruption error and leave the
	// file for `rvpadmin fsck`.
	dir := t.TempDir()
	spec := testSweep(t)
	id := spec.ID()
	path := LedgerPath(dir)
	l, _, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st := pipeline.Stats{Cycles: 3, Committed: 2}
	for _, rec := range []LedgerRecord{
		{Kind: recSweep, Sweep: id, Spec: &spec},
		{Kind: recDone, Sweep: id, Cell: spec.Cells()[0].ID, Worker: "w", Stats: &st},
		{Kind: recDone, Sweep: id, Cell: spec.Cells()[1].ID, Worker: "w", Stats: &st},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	raw, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(raw), "\n")
	// Flip payload bytes without touching the stored CRC: the envelope's
	// checksum no longer matches, so the record must be rejected.
	damaged := strings.Replace(lines[1], `"kind":"done"`, `"kind":"dune"`, 1)
	if damaged == lines[1] {
		t.Fatalf("record 2 has no done kind to damage: %s", lines[1])
	}
	lines[1] = damaged
	os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644)

	_, _, err = OpenLedger(path)
	if err == nil {
		t.Fatal("reopen accepted a ledger with interior corruption")
	}
	if !errors.Is(err, simerr.ErrCorrupt) {
		t.Errorf("reopen error %v does not wrap simerr.ErrCorrupt", err)
	}
	var ce *wal.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("reopen error %v is not a *wal.CorruptError", err)
	}
	if ce.Line != 2 {
		t.Errorf("corruption reported at record %d, want 2", ce.Line)
	}
	// The file must be untouched: all three lines still present for fsck.
	after, _ := os.ReadFile(path)
	if string(after) != strings.Join(lines, "") {
		t.Error("open modified a ledger it refused to load")
	}
}

// TestParentFormatLedgerReplaysAndResumes opens a ledger written before
// scheduling left the disk: besides sweep, done and failed records it
// holds lease, expire and steal records, and its sweep records carry the
// since-deleted profile_insts and threshold fields. Replay must skip the
// scheduling records and yield the same outcomes, and a coordinator
// opened on it must run only the unfinished cells.
func TestParentFormatLedgerReplaysAndResumes(t *testing.T) {
	leak.Check(t)
	raw, err := os.ReadFile("testdata/parent_cells.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(LedgerPath(dir), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	a := SweepSpec{Workloads: []string{"go", "li"}, Predictors: []string{"rvp", "none"}, Insts: 5_000}
	a.Normalize(0)
	b := SweepSpec{Workloads: []string{"perl"}, Predictors: []string{"rvp"}, Insts: 5_000}
	b.Normalize(0)
	done0, failed0 := a.Cells()[0].ID, b.Cells()[0].ID

	l, rp, err := OpenLedger(LedgerPath(dir))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Close()
	if l.Truncated != 0 {
		t.Errorf("parent ledger reported %d truncated records", l.Truncated)
	}
	if len(rp.Order) != 2 || rp.Order[0] != a.ID() || rp.Order[1] != b.ID() {
		t.Fatalf("order = %v, want [%s %s]", rp.Order, a.ID(), b.ID())
	}
	if want := map[string]pipeline.Stats{done0: fakeStats(done0)}; !reflect.DeepEqual(rp.Done[a.ID()], want) || len(rp.Done) != 1 {
		t.Errorf("done = %v, want %v", rp.Done, want)
	}
	if want := map[string]string{failed0: "boom"}; !reflect.DeepEqual(rp.Failed[b.ID()], want) || len(rp.Failed) != 1 {
		t.Errorf("failed = %v, want %v", rp.Failed, want)
	}

	w := newFakeWorker("done")
	defer w.ts.Close()
	c := testCoord(t, dir, w.ts.URL)
	defer c.Stop()
	waitFor(t, "resumed sweep done", func() bool {
		st, _ := c.Status(a.ID())
		return st.Terminal()
	})
	st, _ := c.Status(a.ID())
	if st.State != "done" || st.Done != 4 {
		t.Fatalf("resumed sweep = %+v, want done 4/0", st)
	}
	if st.TableText != expectedTable(a) {
		t.Errorf("resumed table differs from local merge:\n--- fleet\n%s--- local\n%s", st.TableText, expectedTable(a))
	}
	if n := w.count(); n != 3 {
		t.Errorf("worker got %d submissions, want 3 (the done cell must not re-run)", n)
	}
	if st, _ := c.Status(b.ID()); st.State != "partial" || st.Failed != 1 {
		t.Errorf("failed sweep = %+v, want partial with 1 failed", st)
	}
}
