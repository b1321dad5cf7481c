package pipeline

import "rvpsim/internal/obs"

// flushEvery is the hot-loop metrics batching interval, in committed
// instructions. It must be a power of two: the flush test is a mask.
const flushEvery = 8192

// meters bundles the pipeline's registry-backed instruments together
// with single-writer local views for the simulation loop. The loop
// accumulates into the per-run Stats struct and plain histogram buckets
// as before — zero allocations, zero atomics — and every flushEvery
// committed instructions the deltas are folded into the shared registry,
// so concurrent readers (heartbeats, exporters) see near-live values.
// A Sim builds one meters per registry and reuses it run after run (see
// Sim.meters), so a run never consults the shared registry; its
// counters are monotone run-over-run aggregates.
type meters struct {
	reg  *obs.Registry
	pub  *obs.CounterCache // the memory/bpred/predictor publish handles
	prev Stats             // values already flushed into the registry

	cycles      *obs.Counter
	committed   *obs.Counter
	loads       *obs.Counter
	stores      *obs.Counter
	branches    *obs.Counter
	condBr      *obs.Counter
	condMiss    *obs.Counter
	targetMiss  *obs.Counter
	eligible    *obs.Counter
	predicted   *obs.Counter
	correct     *obs.Counter
	wrong       *obs.Counter
	portStarved *obs.Counter
	refetches   *obs.Counter
	stallWindow *obs.Counter
	stallIntIQ  *obs.Counter
	stallFPIQ   *obs.Counter

	hists       [3]*obs.Histogram
	instLatency *obs.LocalHistogram // fetch -> commit
	issueWait   *obs.LocalHistogram // dispatch -> issue (queue wait)
	residency   *obs.LocalHistogram // dispatch -> commit (window occupancy span)
}

// latencyBounds covers 1..~16K cycles exponentially: L1-hit ALU chains
// land in the first buckets, L2/TLB-miss tails in the last.
var latencyBounds = obs.ExpBuckets(2, 2, 14)

func newMeters(reg *obs.Registry) *meters {
	m := &meters{
		reg:         reg,
		pub:         obs.NewCounterCache(reg),
		cycles:      reg.Counter("rvpsim_cycles_total", "simulated cycles"),
		committed:   reg.Counter("rvpsim_committed_total", "committed instructions"),
		loads:       reg.Counter("rvpsim_loads_total", "committed loads"),
		stores:      reg.Counter("rvpsim_stores_total", "committed stores"),
		branches:    reg.Counter("rvpsim_branches_total", "committed control transfers"),
		condBr:      reg.Counter("rvpsim_cond_branches_total", "conditional branches seen"),
		condMiss:    reg.Counter("rvpsim_cond_mispredict_total", "conditional direction mispredicts"),
		targetMiss:  reg.Counter("rvpsim_target_mispredict_total", "target mispredicts (BTB + RAS)"),
		eligible:    reg.Counter("rvpsim_vp_eligible_total", "register-writing instructions seen by the value predictor"),
		predicted:   reg.Counter("rvpsim_vp_predicted_total", "value predictions made"),
		correct:     reg.Counter("rvpsim_vp_correct_total", "correct value predictions"),
		wrong:       reg.Counter("rvpsim_vp_wrong_total", "wrong value predictions"),
		portStarved: reg.Counter("rvpsim_vp_port_starved_total", "predictions dropped for lack of a register read port"),
		refetches:   reg.Counter("rvpsim_vp_refetches_total", "value-mispredict refetch squashes"),
		stallWindow: reg.Counter("rvpsim_stall_window_cycles_total", "dispatch cycles lost to a full instruction window"),
		stallIntIQ:  reg.Counter("rvpsim_stall_intiq_cycles_total", "dispatch cycles lost to a full integer issue queue"),
		stallFPIQ:   reg.Counter("rvpsim_stall_fpiq_cycles_total", "dispatch cycles lost to a full FP issue queue"),
		hists: [3]*obs.Histogram{
			reg.Histogram("rvpsim_inst_latency_cycles", "per-instruction fetch-to-commit latency", latencyBounds),
			reg.Histogram("rvpsim_issue_wait_cycles", "per-instruction dispatch-to-issue queue wait", latencyBounds),
			reg.Histogram("rvpsim_window_residency_cycles", "per-instruction dispatch-to-commit window residency", latencyBounds),
		},
	}
	m.locals()
	return m
}

// locals binds fresh local accumulators to the shared histograms.
func (m *meters) locals() {
	m.instLatency, m.issueWait, m.residency = m.hists[0].Local(), m.hists[1].Local(), m.hists[2].Local()
}

// meters returns the current run's meters, nil without an observer. The
// instruments are resolved against a registry once per Sim: a run only
// rebuilds them when the observer's registry changed since the last run.
func (s *Sim) meters() *meters {
	if s.obs == nil {
		return nil
	}
	if s.met == nil || s.met.reg != s.obs.Registry() {
		s.met = newMeters(s.obs.Registry())
	}
	m := s.met
	m.prev = Stats{}
	if m.instLatency.Pending()+m.issueWait.Pending()+m.residency.Pending() > 0 {
		// A run that panicked never flushed; drop its observations.
		m.locals()
	}
	return m
}

// observe records one committed instruction's stage timings locally.
func (m *meters) observe(instLat, issueWait, residency int64) {
	m.instLatency.Observe(instLat)
	m.issueWait.Observe(issueWait)
	m.residency.Observe(residency)
}

// flush folds the delta between cur and the last flushed Stats into the
// registry counters, plus any pending histogram observations.
func (m *meters) flush(cur *Stats) {
	m.cycles.Add(cur.Cycles - m.prev.Cycles)
	m.committed.Add(int64(cur.Committed - m.prev.Committed))
	m.loads.Add(int64(cur.Loads - m.prev.Loads))
	m.stores.Add(int64(cur.Stores - m.prev.Stores))
	m.branches.Add(int64(cur.Branches - m.prev.Branches))
	m.condBr.Add(int64(cur.CondBranches - m.prev.CondBranches))
	m.condMiss.Add(int64(cur.CondMispredict - m.prev.CondMispredict))
	m.targetMiss.Add(int64(cur.TargetMispred - m.prev.TargetMispred))
	m.eligible.Add(int64(cur.Eligible - m.prev.Eligible))
	m.predicted.Add(int64(cur.Predicted - m.prev.Predicted))
	m.correct.Add(int64(cur.PredictCorrect - m.prev.PredictCorrect))
	m.wrong.Add(int64(cur.PredictWrong - m.prev.PredictWrong))
	m.portStarved.Add(int64(cur.PortStarved - m.prev.PortStarved))
	m.refetches.Add(int64(cur.Refetches - m.prev.Refetches))
	m.stallWindow.Add(cur.StallWindow - m.prev.StallWindow)
	m.stallIntIQ.Add(cur.StallIntIQ - m.prev.StallIntIQ)
	m.stallFPIQ.Add(cur.StallFPIQ - m.prev.StallFPIQ)
	m.prev = *cur
	m.instLatency.Flush()
	m.issueWait.Flush()
	m.residency.Flush()
}
