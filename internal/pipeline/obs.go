package pipeline

import (
	"rvpsim/internal/core"
	"rvpsim/internal/obs"
)

// statCounters names the Stats fields a run publishes. The cache
// hit/miss fields are left to the memory hierarchy's own publish, so
// every fact has one metric name.
var statCounters = []struct {
	name, help string
	val        func(*Stats) int64
}{
	{"rvpsim_cycles_total", "simulated cycles", func(s *Stats) int64 { return s.Cycles }},
	{"rvpsim_committed_total", "committed instructions", func(s *Stats) int64 { return int64(s.Committed) }},
	{"rvpsim_loads_total", "committed loads", func(s *Stats) int64 { return int64(s.Loads) }},
	{"rvpsim_stores_total", "committed stores", func(s *Stats) int64 { return int64(s.Stores) }},
	{"rvpsim_branches_total", "committed control transfers", func(s *Stats) int64 { return int64(s.Branches) }},
	{"rvpsim_cond_branches_total", "conditional branches seen", func(s *Stats) int64 { return int64(s.CondBranches) }},
	{"rvpsim_cond_mispredict_total", "conditional direction mispredicts", func(s *Stats) int64 { return int64(s.CondMispredict) }},
	{"rvpsim_target_mispredict_total", "target mispredicts (BTB + RAS)", func(s *Stats) int64 { return int64(s.TargetMispred) }},
	{"rvpsim_vp_eligible_total", "register-writing instructions seen by the value predictor", func(s *Stats) int64 { return int64(s.Eligible) }},
	{"rvpsim_vp_predicted_total", "value predictions made", func(s *Stats) int64 { return int64(s.Predicted) }},
	{"rvpsim_vp_correct_total", "correct value predictions", func(s *Stats) int64 { return int64(s.PredictCorrect) }},
	{"rvpsim_vp_wrong_total", "wrong value predictions", func(s *Stats) int64 { return int64(s.PredictWrong) }},
	{"rvpsim_vp_port_starved_total", "predictions dropped for lack of a register read port", func(s *Stats) int64 { return int64(s.PortStarved) }},
	{"rvpsim_vp_refetches_total", "value-mispredict refetch squashes", func(s *Stats) int64 { return int64(s.Refetches) }},
	{"rvpsim_stall_window_cycles_total", "dispatch cycles lost to a full instruction window", func(s *Stats) int64 { return s.StallWindow }},
	{"rvpsim_stall_intiq_cycles_total", "dispatch cycles lost to a full integer issue queue", func(s *Stats) int64 { return s.StallIntIQ }},
	{"rvpsim_stall_fpiq_cycles_total", "dispatch cycles lost to a full FP issue queue", func(s *Stats) int64 { return s.StallFPIQ }},
}

// publish adds one run's final Stats and its memory, branch and value
// predictor counters to reg. It runs once, from finalize, so a
// registry shared by many runs holds their sums.
func (s *Sim) publish(reg *obs.Registry, st *Stats, pred core.Predictor) {
	for _, c := range statCounters {
		reg.Counter(c.name, c.help).Add(c.val(st))
	}
	s.hier.PublishMetrics(reg)
	s.bp.PublishMetrics(reg)
	if pub, ok := pred.(obs.Publisher); ok {
		pub.PublishMetrics(reg)
	}
}
