package fleet

import (
	"encoding/json"
	"path/filepath"
	"sync"

	"rvpsim/internal/pipeline"
	"rvpsim/internal/simerr"
	"rvpsim/internal/vfs"
	"rvpsim/internal/wal"
)

// Ledger is the coordinator's write-ahead cell log. It records outcomes
// only: a sweep's admission and each cell's terminal result (done or
// failed) are appended — and fsync'd — before they are acknowledged
// anywhere else. Scheduling (leases, expiries, steals) never touches the
// disk. Replaying the log reconstructs the sweep after a coordinator
// crash: done and failed cells keep their results, every other cell
// starts ready (an in-flight lease held by a dead coordinator is
// meaningless — exactly like a speculative, uncommitted value after a
// squash).
//
// The durability mechanics — CRC envelope, fsync-per-append, torn-tail
// repair on open, interior-corruption refusal — live in internal/wal;
// this type is the fleet-shaped layer on top. The on-disk format is
// unchanged from the pre-engine ledger, so old state dirs resume.
type Ledger struct {
	mu sync.Mutex
	w  *wal.WAL

	// Truncated reports how many damaged tail records were dropped on
	// open.
	Truncated int
}

// Ledger record kinds. Ledgers written before scheduling left the disk
// also hold "lease", "expire" and "steal" records; replay skips them.
const (
	recSweep  = "sweep"
	recDone   = "done"
	recFailed = "failed"
)

// LedgerRecord is one line's payload: a sweep admission or a cell's
// terminal outcome.
type LedgerRecord struct {
	Kind  string `json:"kind"`
	Sweep string `json:"sweep"`
	// Cell is the cell digest (empty on sweep records).
	Cell string `json:"cell,omitempty"`
	// Worker is the URL of the worker that produced a done record.
	Worker string `json:"worker,omitempty"`
	// Spec carries the normalized sweep spec on sweep records.
	Spec *SweepSpec `json:"spec,omitempty"`
	// Stats carries the cell result on done records.
	Stats *pipeline.Stats `json:"stats,omitempty"`
	// Reason carries the failure on failed records.
	Reason string `json:"reason,omitempty"`
}

// Replay is the ledger's reconstructed view: what OpenLedger found. It
// holds outcomes only; the cells of a sweep that are neither done nor
// failed are the ones left to run.
type Replay struct {
	// Sweeps maps sweep ID to its normalized spec, in first-seen order
	// via Order.
	Sweeps map[string]SweepSpec
	Order  []string
	// Done maps sweep ID -> cell digest -> result.
	Done map[string]map[string]pipeline.Stats
	// Failed maps sweep ID -> cell digest -> failure reason.
	Failed map[string]map[string]string
	// DuplicateDone counts done records for cells already done — always
	// zero unless a coordinator bug committed a cell twice.
	DuplicateDone int64
}

// LedgerPath is the cell ledger's location inside a state directory.
func LedgerPath(dir string) string { return filepath.Join(dir, "cells.jsonl") }

// OpenLedger opens (creating if absent) the ledger at path, replays
// every valid record into a Replay, and repairs any torn tail, via the
// real filesystem.
func OpenLedger(path string) (*Ledger, *Replay, error) { return OpenLedgerFS(path, nil, nil) }

// OpenLedgerFS is OpenLedger through an explicit filesystem seam (nil
// means vfs.OS) with optional wal metrics.
func OpenLedgerFS(path string, fsys vfs.FS, met *wal.Metrics) (*Ledger, *Replay, error) {
	l := &Ledger{}
	rp := &Replay{
		Sweeps: map[string]SweepSpec{},
		Done:   map[string]map[string]pipeline.Stats{},
		Failed: map[string]map[string]string{},
	}
	w, err := wal.Open(path, wal.Options{FS: fsys, Name: "fleet", Metrics: met}, func(raw json.RawMessage) error {
		var rec LedgerRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		if rec.Kind == "" || rec.Sweep == "" {
			return simerr.Newf("fleet", "ledger record missing kind or sweep")
		}
		rp.apply(rec)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	l.w = w
	l.Truncated = w.Truncated
	return l, rp, nil
}

// apply folds one replayed record into the view. Kinds it does not know,
// such as an older ledger's scheduling records, are skipped.
func (rp *Replay) apply(rec LedgerRecord) {
	switch rec.Kind {
	case recSweep:
		if rec.Spec == nil {
			return
		}
		if _, seen := rp.Sweeps[rec.Sweep]; !seen {
			rp.Order = append(rp.Order, rec.Sweep)
		}
		rp.Sweeps[rec.Sweep] = *rec.Spec
	case recDone:
		if rec.Stats == nil {
			return
		}
		m := rp.Done[rec.Sweep]
		if m == nil {
			m = map[string]pipeline.Stats{}
			rp.Done[rec.Sweep] = m
		}
		if _, dup := m[rec.Cell]; dup {
			rp.DuplicateDone++
			return
		}
		m[rec.Cell] = *rec.Stats
		delete(rp.Failed[rec.Sweep], rec.Cell)
	case recFailed:
		if _, done := rp.Done[rec.Sweep][rec.Cell]; done {
			return
		}
		m := rp.Failed[rec.Sweep]
		if m == nil {
			m = map[string]string{}
			rp.Failed[rec.Sweep] = m
		}
		m[rec.Cell] = rec.Reason
	}
}

// Append records one outcome, fsyncing before it returns: the
// write-ahead guarantee that makes a restarted coordinator resume
// instead of re-deciding.
func (l *Ledger) Append(rec LedgerRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Append(rec)
}

// Probe checks that the ledger's storage still takes durable writes; a
// degraded coordinator calls this to decide the disk has come back.
func (l *Ledger) Probe() error { return l.w.Probe() }

// Close closes the underlying log.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Close()
}
