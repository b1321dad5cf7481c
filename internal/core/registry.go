package core

import (
	"fmt"

	"rvpsim/internal/simerr"
)

// builtins is the one table of built-in predictors, in presentation
// order: wire name → constructor. The wire names are the vocabulary the
// job API, the service, the fleet and the command-line tools accept; the
// constructed predictor's Name() is what reports carry (e.g. "rvp" builds
// a predictor named "drvp"). Each constructor returns a fresh predictor,
// so retries and sweep cells never share dirty state.
var builtins = []struct {
	name string
	mk   func() Predictor
}{
	{"none", func() Predictor { return NoPredictor{} }},
	{"rvp", func() Predictor { return MustDynamicRVP(DefaultCounterConfig()) }},
	{"rvp_loads", func() Predictor { return MustDynamicRVP(DefaultCounterConfig(), LoadsOnly()) }},
	{"lvp", func() Predictor {
		cfg := DefaultLVPConfig()
		cfg.LoadOnly = true
		return MustLVP(cfg, "lvp")
	}},
	{"lvp_all", func() Predictor { return MustLVP(DefaultLVPConfig(), "lvp_all") }},
	{"gabbay", func() Predictor { return MustGabbayRVP(DefaultCounterConfig(), false) }},
	{"stride", func() Predictor { return MustStridePredictor(DefaultStrideConfig()) }},
	{"context", func() Predictor { return MustContextPredictor(DefaultContextConfig()) }},
}

// PredictorNames lists the built-in predictors' wire names in table order.
func PredictorNames() []string {
	names := make([]string, len(builtins))
	for i, b := range builtins {
		names[i] = b.name
	}
	return names
}

// NewPredictor builds a fresh instance of the named built-in predictor.
// Unknown names are reported as errors wrapping simerr.ErrConfig.
func NewPredictor(name string) (Predictor, error) {
	for _, b := range builtins {
		if b.name == name {
			return b.mk(), nil
		}
	}
	return nil, fmt.Errorf("core: unknown predictor %q (have %v): %w", name, PredictorNames(), simerr.ErrConfig)
}
