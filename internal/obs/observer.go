package obs

// Observer is what an observed simulation run publishes its metrics into:
// a registry, which the run's batched counters, stage-latency histograms
// and subsystem counters are resolved against. Per-commit records are not
// the observer's business; they go to the pipeline's tracer.
type Observer struct {
	reg *Registry
}

// NewObserver returns an observer with a fresh registry.
func NewObserver() *Observer { return &Observer{reg: NewRegistry()} }

// NewObserverWith returns an observer publishing into an existing
// registry (for aggregating several runs).
func NewObserverWith(reg *Registry) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	return &Observer{reg: reg}
}

// Registry returns the observer's metrics registry.
func (o *Observer) Registry() *Registry { return o.reg }
