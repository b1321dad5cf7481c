package wal_test

// Crash-simulation harness: run each durable store's workload with a
// crash injected at EVERY counted syscall boundary in turn, flip the
// in-memory disk to its durable state (exactly what power loss leaves),
// re-open the store, and assert the recovery contract:
//
//   - the store opens (a crash can never make state unreadable),
//   - every acknowledged record is present (acks are durability),
//   - nothing that was never written appears (no invented state).
//
// There is no "silent wrong answer" outcome: any deviation fails the
// test with the crash point that produced it.

import (
	"errors"
	"fmt"
	"io/fs"
	"testing"

	"rvpsim/internal/checkpoint"
	"rvpsim/internal/exp"
	"rvpsim/internal/fleet"
	"rvpsim/internal/pipeline"
	"rvpsim/internal/server"
	"rvpsim/internal/vfs"
)

// crashScenario is one store's workload + post-crash verifier.
type crashScenario struct {
	name string
	// run opens the store on fsys, performs its mutations, and calls
	// ack(key) after each acknowledged one. It returns the first error
	// (the crash) and stops there, like a dying process would.
	run func(fsys vfs.FS, ack func(string)) error
	// verify re-opens on the post-crash fsys and checks the contract
	// given the acknowledged keys.
	verify func(t *testing.T, fsys vfs.FS, acked []string)
}

func TestCrashAtEveryOp(t *testing.T) {
	scenarios := []crashScenario{
		{
			name: "jobstore",
			run: func(fsys vfs.FS, ack func(string)) error {
				s, err := server.OpenStoreFS("/state/jobs.jsonl", fsys, nil)
				if err != nil {
					return err
				}
				for i := 0; i < 3; i++ {
					id := fmt.Sprintf("job-%d", i)
					if err := s.Append(server.JobStatus{ID: id, State: server.StateQueued}); err != nil {
						return err
					}
					ack(id)
				}
				return s.Close()
			},
			verify: func(t *testing.T, fsys vfs.FS, acked []string) {
				s, err := server.OpenStoreFS("/state/jobs.jsonl", fsys, nil)
				if err != nil {
					t.Fatalf("post-crash open: %v", err)
				}
				defer s.Close()
				if s.Len() > 3 {
					t.Fatalf("recovered %d jobs, only 3 ever written", s.Len())
				}
				for _, id := range acked {
					if _, ok := s.Get(id); !ok {
						t.Fatalf("acknowledged job %s lost", id)
					}
				}
			},
		},
		{
			name: "journal",
			run: func(fsys vfs.FS, ack func(string)) error {
				j, err := exp.OpenJournalFS("/state/journal.jsonl", fsys, nil)
				if err != nil {
					return err
				}
				for i := 0; i < 3; i++ {
					key := fmt.Sprintf("cell-%d", i)
					if err := j.Record(key, pipeline.Stats{}); err != nil {
						return err
					}
					ack(key)
				}
				return j.Close()
			},
			verify: func(t *testing.T, fsys vfs.FS, acked []string) {
				j, err := exp.OpenJournalFS("/state/journal.jsonl", fsys, nil)
				if err != nil {
					t.Fatalf("post-crash open: %v", err)
				}
				defer j.Close()
				if j.Len() > 3 {
					t.Fatalf("recovered %d cells, only 3 ever written", j.Len())
				}
				for _, key := range acked {
					if _, ok := j.Cells()[key]; !ok {
						t.Fatalf("acknowledged cell %s lost", key)
					}
				}
			},
		},
		{
			name: "ledger",
			run: func(fsys vfs.FS, ack func(string)) error {
				l, _, err := fleet.OpenLedgerFS("/state/cells.jsonl", fsys, nil)
				if err != nil {
					return err
				}
				spec := &fleet.SweepSpec{Workloads: []string{"go"}, Predictors: []string{"rvp"}, Insts: 5000}
				for i := 0; i < 3; i++ {
					id := fmt.Sprintf("sweep-%d", i)
					if err := l.Append(fleet.LedgerRecord{Kind: "sweep", Sweep: id, Spec: spec}); err != nil {
						return err
					}
					ack(id)
				}
				return l.Close()
			},
			verify: func(t *testing.T, fsys vfs.FS, acked []string) {
				l, rp, err := fleet.OpenLedgerFS("/state/cells.jsonl", fsys, nil)
				if err != nil {
					t.Fatalf("post-crash open: %v", err)
				}
				defer l.Close()
				if len(rp.Sweeps) > 3 {
					t.Fatalf("recovered %d sweeps, only 3 ever written", len(rp.Sweeps))
				}
				for _, id := range acked {
					if _, ok := rp.Sweeps[id]; !ok {
						t.Fatalf("acknowledged sweep %s lost", id)
					}
				}
			},
		},
		{
			name: "checkpoint",
			run: func(fsys vfs.FS, ack func(string)) error {
				for _, v := range []string{"v1", "v2"} {
					if err := checkpoint.SaveFS(fsys, "/state/ckpt/a.ckpt", &pipeline.Snapshot{Program: v}); err != nil {
						return err
					}
					ack(v)
				}
				return nil
			},
			verify: func(t *testing.T, fsys vfs.FS, acked []string) {
				snap, err := checkpoint.LoadFS(fsys, "/state/ckpt/a.ckpt")
				switch {
				case errors.Is(err, fs.ErrNotExist):
					if len(acked) > 0 {
						t.Fatalf("acknowledged checkpoint vanished (acked %v)", acked)
					}
					return
				case err != nil:
					// Old-or-new-never-torn: any other load error means the
					// atomic save left a damaged file behind.
					t.Fatalf("post-crash load: %v", err)
				}
				got := snap.Program
				if got != "v1" && got != "v2" {
					t.Fatalf("checkpoint holds %q, never written", got)
				}
				// Once v2 is acknowledged, v1 must be gone.
				for _, a := range acked {
					if a == "v2" && got != "v2" {
						t.Fatalf("acknowledged v2 rolled back to %q", got)
					}
				}
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Clean pass: count the op schedule this workload generates.
			probe := vfs.NewFault(vfs.NewMem())
			if err := sc.run(probe, func(string) {}); err != nil {
				t.Fatalf("clean run failed: %v", err)
			}
			total := probe.Ops()
			if total < 5 {
				t.Fatalf("workload counted only %d ops — not exercising the disk", total)
			}

			for i := int64(0); i < total; i++ {
				m := vfs.NewMem()
				fault := vfs.NewFault(m)
				fault.CrashAt(i)
				var acked []string
				err := sc.run(fault, func(k string) { acked = append(acked, k) })
				if err == nil {
					t.Fatalf("crash at op %d (of %d, trace %v) went unnoticed", i, total, probe.Trace())
				}
				m.Crash()
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("crash at op %d: verify panicked: %v", i, r)
						}
					}()
					sc.verify(t, m, acked)
				}()
			}
		})
	}
}
