package mem

import "rvpsim/internal/obs"

// PublishMetrics folds the hierarchy's access counters into the
// registry. The hierarchy is per-run state, so publishing once at the
// end of a run adds exactly that run's totals; registries shared across
// runs accumulate monotonically.
func (h *Hierarchy) PublishMetrics(reg *obs.CounterCache) {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		c.PublishMetrics(reg)
	}
	reg.Counter("rvpsim_itlb_hits_total", "ITLB hits").Add(int64(h.ITLB.Hits))
	reg.Counter("rvpsim_itlb_misses_total", "ITLB misses").Add(int64(h.ITLB.Misses))
	reg.Counter("rvpsim_dtlb_hits_total", "DTLB hits").Add(int64(h.DTLB.Hits))
	reg.Counter("rvpsim_dtlb_misses_total", "DTLB misses").Add(int64(h.DTLB.Misses))
}

// PublishMetrics folds the cache's counters into the registry under
// names derived from the cache's configured name (l1i/l1d/l2).
func (c *Cache) PublishMetrics(reg *obs.CounterCache) {
	prefix := "rvpsim_" + lowerName(c.cfg.Name)
	reg.Counter(prefix+"_hits_total", c.cfg.Name+" hits").Add(int64(c.Hits))
	reg.Counter(prefix+"_misses_total", c.cfg.Name+" misses").Add(int64(c.Misses))
	reg.Counter(prefix+"_fill_stalls_total", c.cfg.Name+" hits that waited on an in-flight fill").Add(int64(c.FillStalls))
}

// lowerName lowercases an ASCII cache name for metric identifiers.
func lowerName(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if ch >= 'A' && ch <= 'Z' {
			b[i] = ch + 'a' - 'A'
		}
	}
	return string(b)
}
