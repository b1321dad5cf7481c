package pipeline_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rvpsim/internal/core"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecords is a small deterministic commit stream: three
// instructions with distinct timing shapes (plain, predicted-correct,
// predicted-wrong).
func goldenRecords() []pipeline.TraceRecord {
	return []pipeline.TraceRecord{
		{Index: 0, FetchAt: 0, Dispatch: 2, IssueAt: 3, DoneAt: 5, CommitAt: 6},
		{Index: 1, FetchAt: 0, Dispatch: 2, IssueAt: 2, DoneAt: 4, CommitAt: 7, Predicted: true, Correct: true},
		{Index: 2, FetchAt: 1, Dispatch: 3, IssueAt: 6, DoneAt: 9, CommitAt: 12, Predicted: true, Correct: false},
	}
}

// checkGolden compares got against testdata/name (gunzipped when the name
// ends in .gz), rewriting the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		data := got
		if filepath.Ext(name) == ".gz" {
			var buf bytes.Buffer
			zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
			zw.Write(got)
			zw.Close()
			data = buf.Bytes()
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if filepath.Ext(name) == ".gz" {
		zr, err := gzip.NewReader(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if want, err = io.ReadAll(zr); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Errorf("%s: output differs from golden at byte %d of %d (golden %d bytes; run with -update to regenerate)",
			name, n, len(got), len(want))
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	ct := pipeline.NewChromeTrace(&buf)
	ct.Lanes = 2
	for _, r := range goldenRecords() {
		ct.Trace(r)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_trace.golden", buf.Bytes())
}

// TestCommitWritersGolden drives both commit writers from one tracer, the
// way `rvpsim -w li -n 2000 -trace … -events …` does, and requires the
// files that command wrote to stay byte-identical.
func TestCommitWritersGolden(t *testing.T) {
	prog, err := workloads.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.BaselineConfig()
	var trace, events bytes.Buffer
	ct := pipeline.NewChromeTrace(&trace)
	ct.Lanes = cfg.Window
	jl := pipeline.NewJSONLTrace(&events)
	sim := pipeline.MustNew(cfg)
	sim.SetTracer(func(r pipeline.TraceRecord) {
		ct.Trace(r)
		jl.Trace(r)
	})
	if _, err := sim.Run(prog, core.MustDynamicRVP(core.DefaultCounterConfig()), 2000); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "li_2000.trace.json.gz", trace.Bytes())
	checkGolden(t, "li_2000.events.jsonl.gz", events.Bytes())
}

// TestChromeTraceWellFormed checks the structural contract consumers
// rely on: the output is a JSON array of trace events where every
// non-metadata event is a complete ("ph":"X") span with pid, tid, ts
// and a non-negative dur.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	ct := pipeline.NewChromeTrace(&buf)
	ct.Lanes = 3
	records := goldenRecords()
	for _, r := range records {
		ct.Trace(r)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}

	type traceEvent struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  *int           `json:"pid"`
		Tid  *int64         `json:"tid"`
		Ts   *int64         `json:"ts"`
		Dur  *int64         `json:"dur"`
		Args map[string]any `json:"args"`
	}
	var parsed []traceEvent
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not a JSON array: %v", err)
	}
	var spans, meta int
	for i, e := range parsed {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if e.Pid == nil || e.Tid == nil || e.Ts == nil || e.Dur == nil {
				t.Errorf("event %d (%s) missing pid/tid/ts/dur", i, e.Name)
				continue
			}
			if *e.Dur < 0 {
				t.Errorf("event %d (%s) has negative dur %d", i, e.Name, *e.Dur)
			}
			if *e.Tid < 0 || *e.Tid >= int64(ct.Lanes) {
				t.Errorf("event %d (%s) tid %d outside [0,%d)", i, e.Name, *e.Tid, ct.Lanes)
			}
		default:
			t.Errorf("event %d has unexpected phase %q", i, e.Ph)
		}
	}
	// Four spans per instruction; one process plus Lanes thread names.
	if want := 4 * len(records); spans != want {
		t.Errorf("spans = %d, want %d", spans, want)
	}
	if want := 1 + ct.Lanes; meta != want {
		t.Errorf("metadata events = %d, want %d", meta, want)
	}
}

// TestChromeTraceEmpty checks that a trace with no records is still a
// valid JSON array (metadata only).
func TestChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	ct := pipeline.NewChromeTrace(&buf)
	ct.Lanes = 1
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(parsed) != 2 {
		t.Errorf("empty trace has %d events, want 2 metadata events", len(parsed))
	}
}
