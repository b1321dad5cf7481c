package bpred

import "rvpsim/internal/obs"

// PublishMetrics folds the predictor's counters into the registry. The
// predictor is per-run state, so one publish at the end of a run adds
// exactly that run's totals.
func (p *Predictor) PublishMetrics(reg *obs.CounterCache) {
	reg.Counter("rvpsim_bpred_cond_seen_total", "conditional branches predicted").Add(int64(p.CondSeen))
	reg.Counter("rvpsim_bpred_cond_mispredict_total", "conditional direction mispredicts").Add(int64(p.CondMispred))
	reg.Counter("rvpsim_bpred_target_miss_total", "taken transfers with unknown target").Add(int64(p.TargetMiss))
	reg.Counter("rvpsim_bpred_ras_correct_total", "returns predicted correctly by the RAS").Add(int64(p.RASCorrect))
	reg.Counter("rvpsim_bpred_ras_wrong_total", "returns mispredicted by the RAS").Add(int64(p.RASWrong))
	reg.Counter("rvpsim_bpred_uncond_seen_total", "unconditional transfers predicted").Add(int64(p.UncondSeen))
}
