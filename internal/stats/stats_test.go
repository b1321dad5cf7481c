package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", []string{"a", "b"})
	tab.AddRow("row1", "%.2f", map[string]float64{"a": 1.5, "b": 2.25})
	tab.AddRow("row2", "%.2f", map[string]float64{"a": 3})
	tab.AddNote("a note")
	s := tab.String()
	for _, want := range []string{"Title", "row1", "1.50", "2.25", "row2", "3.00", "-", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q in:\n%s", want, s)
		}
	}
}

func TestTableRowAccess(t *testing.T) {
	tab := NewTable("", []string{"x"})
	tab.AddRow("r", "%.1f", map[string]float64{"x": 9})
	if got := tab.Row("r")["x"]; got != 9 {
		t.Errorf("Row = %v", got)
	}
	if tab.Row("missing") != nil {
		t.Error("missing row not nil")
	}
	labels := tab.RowLabels()
	if len(labels) != 1 || labels[0] != "r" {
		t.Errorf("labels = %v", labels)
	}
}

func TestMarkdown(t *testing.T) {
	tab := NewTable("T", []string{"a", "b"})
	tab.AddRow("r1", "%.1f", map[string]float64{"a": 1, "b": 2})
	tab.AddNote("n")
	md := tab.Markdown()
	for _, want := range []string{"### T", "| r1 | 1.0 | 2.0 |", "|---|---|---|", "*n*"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	// Missing cells render as dashes.
	tab.AddRow("r2", "%.1f", map[string]float64{"a": 3})
	if !strings.Contains(tab.Markdown(), "| r2 | 3.0 | - |") {
		t.Error("missing cell not dashed")
	}
}

func TestFailedCells(t *testing.T) {
	tab := NewTable("T", []string{"a", "b"})
	tab.AddRow("r1", "%.1f", map[string]float64{"a": 1})
	tab.MarkFailed("r1", "b", "watchdog: no forward progress")
	if reason, ok := tab.Failed("r1", "b"); !ok || !strings.Contains(reason, "watchdog") {
		t.Fatalf("Failed = %q, %v", reason, ok)
	}
	if _, ok := tab.Failed("r1", "a"); ok {
		t.Error("healthy cell marked failed")
	}
	cells := tab.FailedCells()
	if len(cells) != 1 || !strings.Contains(cells[0], "r1/b") {
		t.Errorf("FailedCells = %v", cells)
	}
	if !strings.Contains(tab.String(), "ERR") || !strings.Contains(tab.Markdown(), " ERR |") {
		t.Error("failed cell not rendered as ERR")
	}
}

func TestFailedCellsJSONRoundTrip(t *testing.T) {
	tab := NewTable("T", []string{"a", "b"})
	tab.AddRow("r1", "%.1f", map[string]float64{"a": 1})
	tab.MarkFailed("r1", "b", "boom")
	tab.MarkFailed("r0", "a", "earlier row")
	b, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if reason, ok := back.Failed("r1", "b"); !ok || reason != "boom" {
		t.Errorf("round trip lost failure: %q, %v", reason, ok)
	}
	got := back.FailedCells()
	want := []string{"r0/a: earlier row", "r1/b: boom"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("FailedCells after round trip = %v", got)
	}
}
