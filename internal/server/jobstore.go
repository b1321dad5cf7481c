package server

import (
	"encoding/json"
	"path/filepath"
	"sync"

	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Store is the daemon's write-ahead job log: every job state transition
// (accepted, started, finished, requeued) is appended — and fsync'd —
// before the transition is acknowledged anywhere else. Replaying the log
// (latest record per job ID wins) reconstructs every job after a
// restart, which is what makes "no accepted job is ever silently
// dropped" hold across process deaths: a job either reaches a terminal
// record or is re-enqueued by the next daemon.
//
// The durability mechanics — CRC envelope, fsync-per-append, torn-tail
// repair on open, interior-corruption refusal — live in internal/wal;
// this type is the job-shaped layer on top. The on-disk format is
// unchanged from the pre-engine store, so old state dirs resume.
type Store struct {
	mu    sync.Mutex
	w     *wal.WAL
	jobs  map[string]JobStatus
	order []string          // first-seen order, for deterministic recovery
	byKey map[string]string // idempotency key -> job ID
	// notify, when set, runs after each durable append with the job's
	// ID: the server wakes the job's status waits with it.
	notify func(id string)

	// Truncated reports how many damaged tail records were dropped on
	// open.
	Truncated int
}

// StorePath is the job log's location inside a state directory.
func StorePath(dir string) string { return filepath.Join(dir, "jobs.jsonl") }

// OpenStore opens (creating if absent) the job log at path and replays
// every valid record, via the real filesystem.
func OpenStore(path string) (*Store, error) { return OpenStoreFS(path, nil, nil) }

// OpenStoreFS is OpenStore through an explicit filesystem seam (nil
// means vfs.OS) with optional wal metrics.
func OpenStoreFS(path string, fsys vfs.FS, met *wal.Metrics) (*Store, error) {
	s := &Store{jobs: map[string]JobStatus{}, byKey: map[string]string{}}
	w, err := wal.Open(path, wal.Options{FS: fsys, Name: "jobstore", Metrics: met}, func(raw json.RawMessage) error {
		var rec JobStatus
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		if rec.ID == "" {
			return simerr.Newf("jobstore", "record with empty job ID")
		}
		s.apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.w = w
	s.Truncated = w.Truncated
	return s, nil
}

// apply folds one replayed record into the in-memory view. Caller holds
// the lock (or is still single-threaded in OpenStore).
func (s *Store) apply(rec JobStatus) {
	if _, seen := s.jobs[rec.ID]; !seen {
		s.order = append(s.order, rec.ID)
	}
	s.jobs[rec.ID] = rec
	if rec.Key != "" {
		s.byKey[rec.Key] = rec.ID
	}
}

// Append records one job state transition (never a status answer's
// Events), fsyncing before it returns, then notifies.
func (s *Store) Append(rec JobStatus) error {
	rec.Events = nil
	s.mu.Lock()
	err := s.w.Append(rec)
	if err == nil {
		s.apply(rec)
	}
	s.mu.Unlock()
	if err == nil && s.notify != nil {
		s.notify(rec.ID)
	}
	return err
}

// Probe checks that the store's storage still takes durable writes; a
// degraded daemon calls this to decide the disk has come back.
func (s *Store) Probe() error { return s.w.Probe() }

// Get returns the latest record for id.
func (s *Store) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// ByKey returns the latest record for the job an idempotency key maps to.
func (s *Store) ByKey(key string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return JobStatus{}, false
	}
	rec, ok := s.jobs[id]
	return rec, ok
}

// Pending returns every non-terminal job in first-seen order: the work
// a restarted daemon must re-enqueue.
func (s *Store) Pending() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []JobStatus
	for _, id := range s.order {
		if rec := s.jobs[id]; !rec.Terminal() {
			out = append(out, rec)
		}
	}
	return out
}

// Len returns how many distinct jobs the store knows.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Close closes the underlying log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}
