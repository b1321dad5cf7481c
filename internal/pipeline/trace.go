package pipeline

import (
	"bufio"
	"fmt"
	"io"

	"rvpsim/internal/isa"
)

// TraceRecord is the per-committed-instruction record delivered to a
// Tracer: when the instruction moved through each pipeline event, how
// value prediction treated it, and what it architecturally did (PC and
// destination write) — the latter lets differential harnesses compare
// the committed stream against a reference emulator. It is the
// simulator's one commit stream: the Chrome and JSONL writers below,
// lockstep validation and the command-line reports all consume it.
type TraceRecord struct {
	Index     int // static instruction index
	FetchAt   int64
	Dispatch  int64
	IssueAt   int64
	DoneAt    int64
	CommitAt  int64
	Predicted bool
	Correct   bool

	PC      uint64  // simulated-memory address of the instruction
	WroteRd bool    // instruction architecturally wrote Rd
	Rd      isa.Reg // destination register (valid when WroteRd)
	Value   uint64  // value written to Rd (valid when WroteRd)
}

// Tracer receives one record per committed instruction, in commit order.
type Tracer func(TraceRecord)

// ChromeTrace renders a commit stream in the Chrome trace_event JSON array
// format, loadable in chrome://tracing or https://ui.perfetto.dev. One
// simulated cycle maps to one microsecond of trace time. Each committed
// instruction becomes four complete ("ph":"X") spans — fetch, dispatch,
// execute, commit — placed on one of Lanes round-robin threads so
// concurrently in-flight instructions render side by side instead of
// overlapping. Write errors are sticky and reported by Close.
type ChromeTrace struct {
	// Lanes is the number of trace rows instructions are spread over.
	// Set it before the first record; it should exceed the maximum
	// number of in-flight instructions (the instruction window).
	Lanes int

	w       *bufio.Writer
	seq     uint64 // commit sequence number of the next record
	n       uint64 // trace events written
	started bool
	closed  bool
}

// NewChromeTrace returns a writer rendering the trace_event array to w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	return &ChromeTrace{Lanes: 64, w: bufio.NewWriterSize(w, 1<<16)}
}

// sep starts the next trace event: a separator unless it is the first.
func (t *ChromeTrace) sep() {
	if t.n > 0 {
		t.w.WriteString(",\n")
	}
	t.n++
}

func (t *ChromeTrace) meta() {
	if t.Lanes <= 0 {
		t.Lanes = 64
	}
	t.w.WriteString("[\n")
	t.sep()
	t.w.WriteString(`{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"rvpsim pipeline"}}`)
	for lane := 0; lane < t.Lanes; lane++ {
		t.sep()
		fmt.Fprintf(t.w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"lane %02d"}}`, lane, lane)
	}
	t.started = true
}

func (t *ChromeTrace) span(name string, tid, ts, dur int64, args string) {
	t.sep()
	if dur < 0 {
		dur = 0
	}
	if args == "" {
		fmt.Fprintf(t.w, `{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d}`, name, tid, ts, dur)
	} else {
		fmt.Fprintf(t.w, `{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d,"args":%s}`, name, tid, ts, dur, args)
	}
}

// Trace renders one committed instruction; it is a Tracer.
func (t *ChromeTrace) Trace(r TraceRecord) {
	if !t.started {
		t.meta()
	}
	seq := t.seq
	t.seq++
	lane := int64(seq % uint64(t.Lanes))
	args := fmt.Sprintf(`{"index":%d,"seq":%d,"predicted":%t,"correct":%t}`, r.Index, seq, r.Predicted, r.Correct)
	t.span("fetch", lane, r.FetchAt, r.Dispatch-r.FetchAt, args)
	t.span("dispatch", lane, r.Dispatch, r.IssueAt-r.Dispatch, "")
	exec := "execute"
	if r.Predicted {
		if r.Correct {
			exec = "execute (pred ok)"
		} else {
			exec = "execute (pred wrong)"
		}
	}
	t.span(exec, lane, r.IssueAt, r.DoneAt-r.IssueAt, "")
	t.span("commit", lane, r.DoneAt, r.CommitAt-r.DoneAt, "")
}

// Close terminates the JSON array, flushes, and returns the first write
// error, if any.
func (t *ChromeTrace) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if !t.started {
		t.meta()
	}
	t.w.WriteString("\n]\n")
	return t.w.Flush()
}

// JSONLTrace writes a commit stream as JSON Lines, one object per
// committed instruction: the machine-readable stream for ad-hoc
// scripting. Write errors are sticky and reported by Close.
type JSONLTrace struct {
	w   *bufio.Writer
	seq uint64
}

// NewJSONLTrace returns a writer emitting JSON lines to w.
func NewJSONLTrace(w io.Writer) *JSONLTrace {
	return &JSONLTrace{w: bufio.NewWriterSize(w, 1<<16)}
}

// Trace writes one committed instruction's line; it is a Tracer.
func (t *JSONLTrace) Trace(r TraceRecord) {
	fmt.Fprintf(t.w, `{"seq":%d,"index":%d,"fetch":%d,"dispatch":%d,"issue":%d,"done":%d,"commit":%d,"predicted":%t,"correct":%t}`+"\n",
		t.seq, r.Index, r.FetchAt, r.Dispatch, r.IssueAt, r.DoneAt, r.CommitAt, r.Predicted, r.Correct)
	t.seq++
}

// Close flushes buffered lines and returns the first write error, if any.
func (t *JSONLTrace) Close() error { return t.w.Flush() }
