package bpred

import "rvpsim/internal/obs"

// PublishMetrics folds the predictor's counters into the registry. The
// predictor is per-run state, so one publish at the end of a run adds
// exactly that run's totals. The conditional-branch counts are left
// out: the run's Stats hold them and publish them as
// rvpsim_cond_branches_total and rvpsim_cond_mispredict_total.
func (p *Predictor) PublishMetrics(reg *obs.Registry) {
	reg.Counter("rvpsim_bpred_target_miss_total", "taken transfers with unknown target").Add(int64(p.TargetMiss))
	reg.Counter("rvpsim_bpred_ras_correct_total", "returns predicted correctly by the RAS").Add(int64(p.RASCorrect))
	reg.Counter("rvpsim_bpred_ras_wrong_total", "returns mispredicted by the RAS").Add(int64(p.RASWrong))
	reg.Counter("rvpsim_bpred_uncond_seen_total", "unconditional transfers predicted").Add(int64(p.UncondSeen))
}
