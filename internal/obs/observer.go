package obs

// Observer names the registry an observed simulation run publishes
// into. The run adds its final statistics and its memory, branch and
// value-predictor counters once, when it ends; per-commit records are
// not the observer's business, they go to the pipeline's tracer.
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
