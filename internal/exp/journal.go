package exp

import (
	"encoding/json"
	"fmt"
	"maps"
	"path/filepath"
	"sync"

	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Journal is the write-ahead results log for a sweep and the persisted
// layer of the Runner's cell table: every finished cell (one simulation,
// named by its content key) is appended — and fsync'd — before its
// result enters any table, so a crash can lose at most the in-flight
// runs. On open, the journaled cells seed the table, so they are
// replayed instead of re-simulated.
//
// The durability mechanics — CRC envelope, fsync-per-append, torn-tail
// repair on open, interior-corruption refusal — live in internal/wal;
// this type is the sweep-shaped layer on top. The on-disk format is
// unchanged from the pre-engine journal, so old state dirs resume.
type Journal struct {
	mu   sync.Mutex
	w    *wal.WAL
	done map[string]pipeline.Stats

	// Truncated reports how many damaged tail records were dropped when
	// the journal was opened.
	Truncated int
}

// journalRecord is the payload: which cell finished and its result.
type journalRecord struct {
	Key   string         `json:"key"`
	Stats pipeline.Stats `json:"stats"`
}

// OpenJournal opens (creating if absent) the journal at path and
// replays every valid record, via the real filesystem. A torn tail is
// repaired and counted in Journal.Truncated; interior damage is a typed
// error (see internal/wal).
func OpenJournal(path string) (*Journal, error) { return OpenJournalFS(path, nil, nil) }

// OpenJournalFS is OpenJournal through an explicit filesystem seam (nil
// means vfs.OS) with optional wal metrics.
func OpenJournalFS(path string, fsys vfs.FS, met *wal.Metrics) (*Journal, error) {
	j := &Journal{done: map[string]pipeline.Stats{}}
	w, err := wal.Open(path, wal.Options{FS: fsys, Name: "journal", Metrics: met}, func(raw json.RawMessage) error {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		if rec.Key == "" {
			return simerr.Newf("journal", "record with empty cell key")
		}
		j.done[rec.Key] = rec.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.w = w
	j.Truncated = w.Truncated
	return j, nil
}

// Cells returns a copy of every journaled cell's result by key.
func (j *Journal) Cells() map[string]pipeline.Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return maps.Clone(j.done)
}

// Len reports how many completed cells the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one finished cell and fsyncs before returning, making
// the write-ahead guarantee: the result is durable before any table
// aggregation sees it.
func (j *Journal) Record(key string, st pipeline.Stats) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.w.Append(journalRecord{Key: key, Stats: st}); err != nil {
		return err
	}
	j.done[key] = st
	return nil
}

// Close closes the underlying log.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Close()
}

// JournalPath is the journal's location inside a state directory.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// warning records a non-fatal recovery event (a corrupt journal tail
// truncated) destined for a table footnote.
func (r *Runner) warn(format string, args ...any) {
	r.mu.Lock()
	r.warnings = append(r.warnings, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// drainWarnings returns and clears accumulated warnings.
func (r *Runner) drainWarnings() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.warnings
	r.warnings = nil
	return w
}
