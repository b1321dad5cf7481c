// Package fleet runs one sweep across many rvpd workers without ever
// producing a different answer than one machine would. The coordinator
// shards a sweep spec into cells — one workload × predictor × recovery
// simulation each, identified by the digest of its normalized job spec —
// and dispatches them to registered workers over the existing HTTP job
// API via internal/client. Every rvpd hosts one coordinator on its own
// state directory and serves its sweep API (Handler) next to the job
// API; the workers are other rvpd daemons, named by -peers or joining
// with -advertise.
//
// Robustness is the design center, and it is the distributed analogue of
// the misprediction-recovery discipline the simulated pipeline itself
// enforces (mispredict → squash → re-execute, never commit a wrong
// value): a lost worker is a mispredicted cell. Concretely:
//
//   - Workers hold time-bounded leases on cells, renewed by the
//     heartbeat of successful status polls. Each poll is a long-poll
//     (GET /v1/jobs/{id}?wait=Heartbeat): the worker answers as soon as
//     the job's terminal record is durable, so a finished cell is seen
//     at once, not at the next heartbeat. Polls start at least
//     Heartbeat apart, so a worker that ignores the wait is not
//     hammered. A lease that expires — worker killed, partitioned, or
//     wedged — returns its cell to the ready set for reassignment.
//     Nothing is committed on assignment, only on a durably journaled
//     result.
//   - Dispatch is idempotency-keyed per (sweep, cell), and every cell's
//     simulation is deterministic, so double execution — two workers
//     racing after an expiry or a steal — is harmless: both produce the
//     identical result and the ledger commits exactly one.
//   - An idle worker steals the oldest straggling lease rather than
//     waiting, so one slow node cannot stall a sweep's tail.
//   - The coordinator's own state is a CRC-enveloped write-ahead cell
//     ledger (the jobstore/journal envelope idiom) of outcomes only:
//     sweep admissions and each cell's done or failed result. Leases,
//     expiries and steals live in memory. Kill and restart the
//     coordinator and it resumes the sweep with every finished cell
//     intact; a cell that was merely leased starts ready again. While
//     the ledger cannot take appends, the coordinator admits no sweep
//     and grants no lease.
//   - The merge stage reads each cell by digest while walking the
//     spec's axes, so the assembled table is byte-identical no matter
//     which worker ran what, in what order, or how many times.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"rvpsim/internal/exp"
	"rvpsim/internal/simerr"
	"rvpsim/internal/workloads"
)

// SweepSpec names a grid of simulation cells: the cartesian product of
// workloads × predictors × recovery schemes, each run with the same
// instruction budget. It is the wire format the coordinator accepts.
// Every cell is a "run" job, which never profiles, so a sweep carries
// no profiling budget or threshold.
type SweepSpec struct {
	// Name titles the result table (defaulted from the sweep ID).
	Name string `json:"name,omitempty"`
	// Workloads lists benchmark names (empty = all nine).
	Workloads []string `json:"workloads,omitempty"`
	// Predictors lists value-predictor names (empty = every predictor
	// the job API accepts; see exp.JobPredictors).
	Predictors []string `json:"predictors,omitempty"`
	// Recoveries lists misprediction recovery schemes (empty =
	// selective only; see exp.JobRecoveries).
	Recoveries []string `json:"recoveries,omitempty"`
	// Insts is the committed-instruction budget per cell (0 takes the
	// coordinator's default).
	Insts uint64 `json:"insts,omitempty"`
}

// MaxSweepCells bounds how many cells one sweep may shard into; the
// ledger, scheduler and merge are sized for million-cell sweeps, and
// admission rejects anything larger before any state is created.
const MaxSweepCells = 1_000_000

// Cell is one schedulable unit of a sweep: a single-run job spec plus
// its identity, the digest of the normalized spec. The digest is the
// cell's name everywhere — ledger records, idempotency keys, merge
// ordering — which is what makes every layer agree on what "this cell"
// means across workers, retries and coordinator restarts.
type Cell struct {
	ID   string
	Spec exp.JobSpec
}

// Normalize fills defaults in place: all workloads, every predictor,
// selective recovery, and defaultInsts (then the runner default) for a
// zero budget. Normalize before ID or Cells so equivalent sweeps share
// state.
func (s *SweepSpec) Normalize(defaultInsts uint64) {
	if len(s.Workloads) == 0 {
		s.Workloads = workloads.Names()
	}
	if len(s.Predictors) == 0 {
		s.Predictors = exp.JobPredictors()
	}
	if len(s.Recoveries) == 0 {
		s.Recoveries = []string{"selective"}
	}
	if s.Insts == 0 {
		s.Insts = defaultInsts
	}
	if s.Insts == 0 {
		s.Insts = exp.DefaultOptions().Insts
	}
	if s.Name == "" {
		s.Name = "Fleet sweep " + s.ID()
	}
}

// Validate checks every axis against the job API's vocabulary by
// validating one probe cell per axis value, plus the grid size. Errors
// wrap simerr.ErrConfig so the HTTP layer maps them to 400s.
func (s SweepSpec) Validate() error {
	bad := func(format string, args ...any) error {
		return simerr.New("fleet", fmt.Errorf(format+": %w", append(args, simerr.ErrConfig)...))
	}
	if len(s.Workloads) == 0 || len(s.Predictors) == 0 || len(s.Recoveries) == 0 {
		return bad("empty sweep axis (normalize first)")
	}
	n := len(s.Workloads) * len(s.Predictors) * len(s.Recoveries)
	if n > MaxSweepCells {
		return bad("sweep shards into %d cells, above the %d limit", n, MaxSweepCells)
	}
	if dup := firstDup(s.Workloads); dup != "" {
		return bad("duplicate workload %q", dup)
	}
	if dup := firstDup(s.Predictors); dup != "" {
		return bad("duplicate predictor %q", dup)
	}
	if dup := firstDup(s.Recoveries); dup != "" {
		return bad("duplicate recovery %q", dup)
	}
	// One probe spec per axis value is enough: cell validity is
	// separable per axis, so validating the full product would only
	// repeat the same checks len(grid) times.
	for _, wl := range s.Workloads {
		probe := s.cellSpec(wl, s.Predictors[0], s.Recoveries[0])
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, p := range s.Predictors[1:] {
		probe := s.cellSpec(s.Workloads[0], p, s.Recoveries[0])
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	for _, rec := range s.Recoveries[1:] {
		probe := s.cellSpec(s.Workloads[0], s.Predictors[0], rec)
		if err := probe.Validate(); err != nil {
			return err
		}
	}
	return nil
}

func firstDup(vs []string) string {
	seen := make(map[string]bool, len(vs))
	for _, v := range vs {
		if seen[v] {
			return v
		}
		seen[v] = true
	}
	return ""
}

// cellSpec builds the normalized job spec of one cell.
func (s SweepSpec) cellSpec(workload, predictor, recovery string) exp.JobSpec {
	js := exp.JobSpec{
		Kind:      "run",
		Workload:  workload,
		Predictor: predictor,
		Recovery:  recovery,
		Insts:     s.Insts,
	}
	js.Normalize(0)
	return js
}

// ID returns the sweep's stable hex fingerprint over its configuration
// — axes and budgets, deliberately not the cosmetic Name — so
// resubmitting the same grid under a different label joins the
// existing sweep rather than forking a duplicate. Normalize first: the
// ID keys the sweep's ledger state.
//
// The pn and th fields once held the sweep's profiling budget and
// threshold. They keep the values every sweep then normalized to,
// Insts/4 and 0.80, so sweep IDs in existing ledgers stay valid.
func (s SweepSpec) ID() string {
	canon := fmt.Sprintf("wl=%s|pred=%s|rec=%s|n=%d|pn=%d|th=%.6f",
		strings.Join(s.Workloads, ","), strings.Join(s.Predictors, ","),
		strings.Join(s.Recoveries, ","), s.Insts, s.Insts/4, 0.80)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:10])
}

// Cells shards the normalized sweep into its cells, sorted by cell
// digest. Digest order is the canonical order everywhere downstream —
// initial scheduling and the merge both walk it — so no layer depends
// on arrival order.
func (s SweepSpec) Cells() []Cell {
	out := make([]Cell, 0, len(s.Workloads)*len(s.Predictors)*len(s.Recoveries))
	for _, wl := range s.Workloads {
		for _, p := range s.Predictors {
			for _, rec := range s.Recoveries {
				js := s.cellSpec(wl, p, rec)
				out = append(out, Cell{ID: js.Digest(), Spec: js})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
