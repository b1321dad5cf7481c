// Package stats provides small result-table utilities shared by the
// experiment drivers and CLIs: aggregation helpers and fixed-width text
// rendering of labelled series, mirroring the rows/series of the paper's
// tables and figures.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of vs (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// Table is a labelled grid: one row per series, one column per item.
// Cells can be marked failed (MarkFailed) when the run that would have
// produced them errored; failed cells render as "ERR" and carry their
// failure reason through JSON round-trips.
type Table struct {
	Title   string
	Columns []string
	rows    []row
	Notes   []string
	failed  map[cellKey]string
}

type cellKey struct{ Row, Col string }

type row struct {
	label  string
	values map[string]float64
	format string
}

// NewTable creates a table with the given title and column names.
func NewTable(title string, columns []string) *Table {
	return &Table{Title: title, Columns: append([]string(nil), columns...)}
}

// AddRow appends a series. format is the fmt verb for values (e.g.
// "%.2f", "%5.1f%%").
func (t *Table) AddRow(label, format string, values map[string]float64) {
	cp := make(map[string]float64, len(values))
	for k, v := range values {
		cp[k] = v
	}
	t.rows = append(t.rows, row{label: label, values: cp, format: format})
}

// AddNote appends a footnote line.
func (t *Table) AddNote(note string) { t.Notes = append(t.Notes, note) }

// MarkFailed marks one cell as failed with a reason. The row need not
// exist yet (a failed run usually produced no row at all); rendering
// shows "ERR" wherever a failed cell would have held a value.
func (t *Table) MarkFailed(label, col, reason string) {
	if t.failed == nil {
		t.failed = make(map[cellKey]string)
	}
	t.failed[cellKey{label, col}] = reason
}

// Failed returns the failure reason for a cell ("" when the cell
// succeeded) and whether the cell was marked failed.
func (t *Table) Failed(label, col string) (string, bool) {
	r, ok := t.failed[cellKey{label, col}]
	return r, ok
}

// FailedCells returns the failed cells in deterministic (row, column)
// order as "row/col: reason" strings.
func (t *Table) FailedCells() []string {
	if len(t.failed) == 0 {
		return nil
	}
	keys := make([]cellKey, 0, len(t.failed))
	for k := range t.failed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Row != keys[j].Row {
			return keys[i].Row < keys[j].Row
		}
		return keys[i].Col < keys[j].Col
	})
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%s/%s: %s", k.Row, k.Col, t.failed[k]))
	}
	return out
}

// Row returns the values of the labelled row (nil when absent).
func (t *Table) Row(label string) map[string]float64 {
	for _, r := range t.rows {
		if r.label == label {
			return r.values
		}
	}
	return nil
}

// RowLabels returns the labels in insertion order.
func (t *Table) RowLabels() []string {
	var out []string
	for _, r := range t.rows {
		out = append(out, r.label)
	}
	return out
}

// String renders the table as fixed-width text.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	labelW := 12
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.rows))
	for ri, r := range t.rows {
		cells[ri] = make([]string, len(t.Columns))
		for ci, c := range t.Columns {
			v, ok := r.values[c]
			s := "-"
			if _, bad := t.failed[cellKey{r.label, c}]; bad {
				s = "ERR"
			} else if ok {
				s = fmt.Sprintf(r.format, v)
			}
			cells[ri][ci] = s
			if len(s) > colW[ci] {
				colW[ci] = len(s)
			}
		}
	}
	for ci, c := range t.Columns {
		if len(c) > colW[ci] {
			colW[ci] = len(c)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for ci, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", colW[ci], c)
	}
	b.WriteByte('\n')
	for ri, r := range t.rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.label)
		for ci := range t.Columns {
			fmt.Fprintf(&b, " %*s", colW[ci], cells[ri][ci])
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table with
// the title as a heading and notes as a trailing paragraph.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| |")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|---|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		fmt.Fprintf(&b, "| %s |", r.label)
		for _, c := range t.Columns {
			if _, bad := t.failed[cellKey{r.label, c}]; bad {
				b.WriteString(" ERR |")
			} else if v, ok := r.values[c]; ok {
				fmt.Fprintf(&b, " "+r.format+" |", v)
			} else {
				b.WriteString(" - |")
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// tableJSON is the machine-readable shape of a Table: rows carry their
// labels and values explicitly so run manifests round-trip cleanly.
type tableJSON struct {
	Title   string       `json:"title"`
	Columns []string     `json:"columns"`
	Rows    []rowJSON    `json:"rows"`
	Notes   []string     `json:"notes,omitempty"`
	Failed  []failedJSON `json:"failed,omitempty"`
}

type rowJSON struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values"`
}

type failedJSON struct {
	Row    string `json:"row"`
	Col    string `json:"col"`
	Reason string `json:"reason"`
}

// MarshalJSON renders the table as a structured object (title, columns,
// labelled rows, notes) for machine-readable run reports.
func (t *Table) MarshalJSON() ([]byte, error) {
	out := tableJSON{Title: t.Title, Columns: t.Columns, Notes: t.Notes, Rows: make([]rowJSON, 0, len(t.rows))}
	for _, r := range t.rows {
		cp := make(map[string]float64, len(r.values))
		for k, v := range r.values {
			cp[k] = v
		}
		out.Rows = append(out.Rows, rowJSON{Label: r.label, Values: cp})
	}
	if len(t.failed) > 0 {
		keys := make([]cellKey, 0, len(t.failed))
		for k := range t.failed {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Row != keys[j].Row {
				return keys[i].Row < keys[j].Row
			}
			return keys[i].Col < keys[j].Col
		})
		for _, k := range keys {
			out.Failed = append(out.Failed, failedJSON{Row: k.Row, Col: k.Col, Reason: t.failed[k]})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a table marshalled by MarshalJSON (row formats
// default to "%.3f").
func (t *Table) UnmarshalJSON(b []byte) error {
	var in tableJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	t.Title = in.Title
	t.Columns = in.Columns
	t.Notes = in.Notes
	t.rows = nil
	t.failed = nil
	for _, r := range in.Rows {
		t.AddRow(r.Label, "%.3f", r.Values)
	}
	for _, f := range in.Failed {
		t.MarkFailed(f.Row, f.Col, f.Reason)
	}
	return nil
}
