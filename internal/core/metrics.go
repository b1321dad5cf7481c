package core

import "rvpsim/internal/obs"

// publishTable folds a confidence-counter table's statistics into the
// registry under the given metric prefix.
func publishTable(reg *obs.Registry, prefix string, t *CounterTable) {
	reg.Counter(prefix+"_lookups_total", "confidence-table consultations").Add(int64(t.Lookups))
	reg.Counter(prefix+"_confident_total", "consultations at or above threshold").Add(int64(t.Confirmed))
	reg.Counter(prefix+"_resets_total", "training updates that reset a counter").Add(int64(t.Resets))
	if t.cfg.Tagged {
		reg.Counter(prefix+"_tag_steals_total", "tagged entries stolen by aliasing PCs").Add(int64(t.TagSteals))
	}
}

// PublishMetrics implements obs.Publisher: dynamic RVP's confidence
// table statistics. Predictor state is Reset at the start of each run,
// so one publish at the end of a run adds that run's totals.
func (p *DynamicRVP) PublishMetrics(reg *obs.Registry) {
	publishTable(reg, "rvpsim_drvp_table", p.counters)
	reg.Counter("rvpsim_drvp_hinted_total", "static instructions with compiler reuse hints").Add(int64(len(p.hints)))
}

// PublishMetrics implements obs.Publisher for the Gabbay & Mendelson
// register-indexed predictor.
func (p *GabbayRVP) PublishMetrics(reg *obs.Registry) {
	publishTable(reg, "rvpsim_grp_table", p.counters)
}

// PublishMetrics implements obs.Publisher for the LVP baseline.
func (p *LVP) PublishMetrics(reg *obs.Registry) {
	reg.Counter("rvpsim_lvp_decides_total", "LVP consultations on eligible instructions").Add(int64(p.Decides))
	reg.Counter("rvpsim_lvp_tag_misses_total", "LVP consultations that missed on the tag").Add(int64(p.TagMisses))
	reg.Counter("rvpsim_lvp_tag_steals_total", "LVP entries stolen at training time").Add(int64(p.TagSteals))
}
