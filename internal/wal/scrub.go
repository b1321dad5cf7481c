package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
)

// osWrFlag opens an existing log for in-place tail repair.
const osWrFlag = os.O_WRONLY

// Issue is one damaged record found by a scrub.
type Issue struct {
	Line   int    `json:"line"`   // 1-based
	Offset int64  `json:"offset"` // byte offset of the damaged line
	Reason string `json:"reason"` // "bad crc", "bad json", "blank line", "torn line"
}

// Report is a scrub's verdict on one log file.
type Report struct {
	Path string `json:"path"`
	// Records counts records a WAL replay would accept (the valid
	// prefix).
	Records int `json:"records"`
	// Shadowed counts valid records stranded AFTER the first damage —
	// acknowledged state a blind tail-truncation would destroy.
	Shadowed int `json:"shadowed,omitempty"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// Issues lists every damaged record in file order.
	Issues []Issue `json:"issues,omitempty"`
	// Interior is true when valid records follow damage: bitrot or an
	// outside writer, not a torn append. Repair refuses these; only
	// Quarantine handles them.
	Interior bool `json:"interior,omitempty"`
	// Quarantined is where the file (or its cut tail) was moved, when a
	// repair or quarantine ran.
	Quarantined string `json:"quarantined,omitempty"`
	// Repaired is true when a torn tail was truncated away.
	Repaired bool `json:"repaired,omitempty"`
}

// Clean reports whether the scrub found no damage.
func (r *Report) Clean() bool { return len(r.Issues) == 0 }

// String renders a one-line operator summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d record(s), %d byte(s)", r.Path, r.Records, r.Bytes)
	switch {
	case r.Clean():
		b.WriteString(", clean")
	case r.Interior:
		fmt.Fprintf(&b, ", INTERIOR CORRUPTION: %d damaged record(s), %d acknowledged record(s) shadowed",
			len(r.Issues), r.Shadowed)
	default:
		fmt.Fprintf(&b, ", torn tail: %d damaged record(s)", len(r.Issues))
	}
	if r.Repaired {
		b.WriteString(" [repaired]")
	}
	if r.Quarantined != "" {
		fmt.Fprintf(&b, " [quarantined -> %s]", r.Quarantined)
	}
	return b.String()
}

// Scrub reads the whole log at path and classifies every record,
// without modifying anything. Unlike Open, it keeps scanning past
// damage, so the report covers interior holes and the valid records
// shadowed behind them.
func Scrub(fsys vfs.FS, path string, met *Metrics) (*Report, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, simerr.New("wal", err)
	}
	met.scrubbed(1)
	r := &Report{Path: path, Bytes: int64(len(data))}
	off, line := 0, 0
	damaged := false
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			line++
			r.Issues = append(r.Issues, Issue{Line: line, Offset: int64(off), Reason: "torn line"})
			break
		}
		line++
		_, reason := ParseEnvelope(data[off : off+nl])
		switch {
		case reason != "":
			r.Issues = append(r.Issues, Issue{Line: line, Offset: int64(off), Reason: reason})
			damaged = true
		case damaged:
			r.Shadowed++
			r.Interior = true
		default:
			r.Records++
		}
		off += nl + 1
	}
	met.scrubCorrupt(int64(len(r.Issues)))
	return r, nil
}

// RepairTail truncates a torn tail off the log, first preserving the
// cut bytes as <quarantineDir>/<base>.tail so nothing is destroyed
// unrecoverably. It refuses interior damage (returns the report with
// Repaired false and a non-nil error wrapping simerr.ErrCorrupt) —
// that's Quarantine's job. A clean file is a no-op.
func RepairTail(fsys vfs.FS, path, quarantineDir string, met *Metrics) (*Report, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	r, err := Scrub(fsys, path, met)
	if err != nil {
		return nil, err
	}
	if r.Clean() {
		return r, nil
	}
	if r.Interior {
		return r, &CorruptError{Path: path, Line: r.Issues[0].Line, Offset: r.Issues[0].Offset, Reason: r.Issues[0].Reason}
	}
	cut := r.Issues[0].Offset
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, simerr.New("wal", err)
	}
	if quarantineDir != "" {
		dst := filepath.Join(quarantineDir, filepath.Base(path)+".tail")
		if err := fsys.MkdirAll(quarantineDir, 0o755); err != nil {
			return nil, simerr.New("wal", err)
		}
		if err := vfs.WriteFileAtomic(fsys, dst, data[cut:], 0o644); err != nil {
			return nil, simerr.New("wal", err)
		}
		r.Quarantined = dst
	}
	f, err := fsys.OpenFile(path, osWrFlag, 0o644)
	if err != nil {
		return nil, simerr.New("wal", err)
	}
	if err := f.Truncate(cut); err != nil {
		_ = f.Close()
		return nil, simerr.New("wal", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, simerr.New("wal", err)
	}
	if err := f.Close(); err != nil {
		return nil, simerr.New("wal", err)
	}
	r.Repaired = true
	r.Bytes = cut
	return r, nil
}

// Quarantine moves the whole damaged log into quarantineDir (same
// filesystem rename) so the service starts fresh while an operator
// keeps the evidence. The move is directory-fsync'd on both ends.
func Quarantine(fsys vfs.FS, path, quarantineDir string, met *Metrics) (string, error) {
	if fsys == nil {
		fsys = vfs.OS
	}
	if err := fsys.MkdirAll(quarantineDir, 0o755); err != nil {
		return "", simerr.New("wal", err)
	}
	if err := fsys.SyncDir(quarantineDir); err != nil {
		return "", simerr.New("wal", err)
	}
	dst := filepath.Join(quarantineDir, filepath.Base(path)+".corrupt")
	if err := fsys.Rename(path, dst); err != nil {
		return "", simerr.New("wal", err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return "", simerr.New("wal", err)
	}
	if err := fsys.SyncDir(quarantineDir); err != nil {
		return "", simerr.New("wal", err)
	}
	met.quarantined(1)
	return dst, nil
}
