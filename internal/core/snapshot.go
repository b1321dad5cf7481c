package core

import (
	"fmt"

	"rvpsim/internal/simerr"
)

// This file implements checkpoint serialization for every value
// predictor. Configuration (table sizing, hints, marked sets) is not
// serialized — it is deterministic from the experiment options and the
// profile, and the restoring side rebuilds the predictor through the
// same constructor before loading dynamic state into it.

// PredictorState is the serializable dynamic state of a Predictor. It is
// a closed set: each concrete type below corresponds to one predictor
// implementation and is registered with gob by internal/checkpoint.
type PredictorState interface {
	predictorState()
}

// Checkpointable is implemented by predictors that can round-trip their
// dynamic state through a checkpoint. All predictors in this package
// implement it; a custom Predictor that does not is simply ineligible
// for checkpoint/resume (the experiment runner checks at run time).
type Checkpointable interface {
	// SnapshotState captures the predictor's dynamic state.
	SnapshotState() PredictorState
	// RestoreState loads a state captured from a predictor built with
	// an identical configuration. A state of the wrong concrete type or
	// geometry is an error wrapping simerr.ErrCorrupt.
	RestoreState(PredictorState) error
}

// CounterTableState is the dynamic state of a CounterTable.
type CounterTableState struct {
	Ctr  []uint8
	Tags []int32

	Lookups   uint64
	Confirmed uint64
	Resets    uint64
	TagSteals uint64
}

// SnapshotState captures the table's counters, tags, and statistics.
func (t *CounterTable) SnapshotState() CounterTableState {
	return CounterTableState{
		Ctr:       append([]uint8(nil), t.ctr...),
		Tags:      append([]int32(nil), t.tags...),
		Lookups:   t.Lookups,
		Confirmed: t.Confirmed,
		Resets:    t.Resets,
		TagSteals: t.TagSteals,
	}
}

// RestoreState loads a state captured from an identically configured table.
func (t *CounterTable) RestoreState(s CounterTableState) error {
	if len(s.Ctr) != len(t.ctr) || len(s.Tags) != len(t.tags) {
		return fmt.Errorf("core: counter table state geometry mismatch: %w", simerr.ErrCorrupt)
	}
	copy(t.ctr, s.Ctr)
	copy(t.tags, s.Tags)
	t.Lookups, t.Confirmed, t.Resets, t.TagSteals = s.Lookups, s.Confirmed, s.Resets, s.TagSteals
	return nil
}

// wrongState builds the standard type-mismatch error.
func wrongState(who string, got PredictorState) error {
	return fmt.Errorf("core: %s: predictor state has wrong type %T: %w", who, got, simerr.ErrCorrupt)
}

// DynamicRVPState is the dynamic state of a DynamicRVP: its counters.
// Checkpoints written when the predictor also kept each instruction's
// last value carry those values in one more field, which decoding
// ignores; the pipeline's snapshot holds the same values.
type DynamicRVPState struct {
	Counters CounterTableState
}

func (DynamicRVPState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *DynamicRVP) SnapshotState() PredictorState {
	return DynamicRVPState{Counters: p.counters.SnapshotState()}
}

// RestoreState implements Checkpointable.
func (p *DynamicRVP) RestoreState(s PredictorState) error {
	st, ok := s.(DynamicRVPState)
	if !ok {
		return wrongState(p.name, s)
	}
	return p.counters.RestoreState(st.Counters)
}

// StaticRVPState is the (empty) state of a StaticRVP, which has no
// dynamic state. Older checkpoints carry last values here too, which
// decoding ignores, as for DynamicRVPState.
type StaticRVPState struct{}

func (StaticRVPState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *StaticRVP) SnapshotState() PredictorState { return StaticRVPState{} }

// RestoreState implements Checkpointable.
func (p *StaticRVP) RestoreState(s PredictorState) error {
	if _, ok := s.(StaticRVPState); !ok {
		return wrongState(p.name, s)
	}
	return nil
}

// GabbayRVPState is the dynamic state of a GabbayRVP.
type GabbayRVPState struct {
	Counters CounterTableState
}

func (GabbayRVPState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *GabbayRVP) SnapshotState() PredictorState {
	return GabbayRVPState{Counters: p.counters.SnapshotState()}
}

// RestoreState implements Checkpointable.
func (p *GabbayRVP) RestoreState(s PredictorState) error {
	st, ok := s.(GabbayRVPState)
	if !ok {
		return wrongState(p.name, s)
	}
	return p.counters.RestoreState(st.Counters)
}

// NoPredictorState is the (empty) state of the no_predict baseline.
type NoPredictorState struct{}

func (NoPredictorState) predictorState() {}

// SnapshotState implements Checkpointable.
func (NoPredictor) SnapshotState() PredictorState { return NoPredictorState{} }

// RestoreState implements Checkpointable.
func (NoPredictor) RestoreState(s PredictorState) error {
	if _, ok := s.(NoPredictorState); !ok {
		return wrongState("no_predict", s)
	}
	return nil
}

// LVPState is the dynamic state of the last-value predictor.
type LVPState struct {
	Values []uint64
	Tags   []int32
	Ctr    []uint8

	Decides   uint64
	TagMisses uint64
	TagSteals uint64
}

func (LVPState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *LVP) SnapshotState() PredictorState {
	return LVPState{
		Values:    append([]uint64(nil), p.values...),
		Tags:      append([]int32(nil), p.tags...),
		Ctr:       append([]uint8(nil), p.ctr...),
		Decides:   p.Decides,
		TagMisses: p.TagMisses,
		TagSteals: p.TagSteals,
	}
}

// RestoreState implements Checkpointable.
func (p *LVP) RestoreState(s PredictorState) error {
	st, ok := s.(LVPState)
	if !ok {
		return wrongState(p.name, s)
	}
	if len(st.Values) != len(p.values) || len(st.Tags) != len(p.tags) || len(st.Ctr) != len(p.ctr) {
		return fmt.Errorf("core: %s: state geometry mismatch: %w", p.name, simerr.ErrCorrupt)
	}
	copy(p.values, st.Values)
	copy(p.tags, st.Tags)
	copy(p.ctr, st.Ctr)
	p.Decides, p.TagMisses, p.TagSteals = st.Decides, st.TagMisses, st.TagSteals
	return nil
}

// StrideState is the dynamic state of the stride predictor.
type StrideState struct {
	Tags   []int32
	Last   []uint64
	Stride []uint64
	Ctr    []uint8
}

func (StrideState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *StridePredictor) SnapshotState() PredictorState {
	return StrideState{
		Tags:   append([]int32(nil), p.tags...),
		Last:   append([]uint64(nil), p.last...),
		Stride: append([]uint64(nil), p.stride...),
		Ctr:    append([]uint8(nil), p.ctr...),
	}
}

// RestoreState implements Checkpointable.
func (p *StridePredictor) RestoreState(s PredictorState) error {
	st, ok := s.(StrideState)
	if !ok {
		return wrongState("stride", s)
	}
	if len(st.Tags) != len(p.tags) || len(st.Last) != len(p.last) ||
		len(st.Stride) != len(p.stride) || len(st.Ctr) != len(p.ctr) {
		return fmt.Errorf("core: stride: state geometry mismatch: %w", simerr.ErrCorrupt)
	}
	copy(p.tags, st.Tags)
	copy(p.last, st.Last)
	copy(p.stride, st.Stride)
	copy(p.ctr, st.Ctr)
	return nil
}

// ContextState is the dynamic state of the finite-context predictor.
type ContextState struct {
	Tags   []int32
	Hist   [][]uint64
	PatVal []uint64
	PatCtr []uint8
}

func (ContextState) predictorState() {}

// SnapshotState implements Checkpointable.
func (p *ContextPredictor) SnapshotState() PredictorState {
	hist := make([][]uint64, len(p.hist))
	for i, h := range p.hist {
		hist[i] = append([]uint64(nil), h...)
	}
	return ContextState{
		Tags:   append([]int32(nil), p.tags...),
		Hist:   hist,
		PatVal: append([]uint64(nil), p.patVal...),
		PatCtr: append([]uint8(nil), p.patCtr...),
	}
}

// RestoreState implements Checkpointable.
func (p *ContextPredictor) RestoreState(s PredictorState) error {
	st, ok := s.(ContextState)
	if !ok {
		return wrongState("context", s)
	}
	if len(st.Tags) != len(p.tags) || len(st.Hist) != len(p.hist) ||
		len(st.PatVal) != len(p.patVal) || len(st.PatCtr) != len(p.patCtr) {
		return fmt.Errorf("core: context: state geometry mismatch: %w", simerr.ErrCorrupt)
	}
	for i, h := range st.Hist {
		if len(h) != len(p.hist[i]) {
			return fmt.Errorf("core: context: history depth mismatch at %d: %w", i, simerr.ErrCorrupt)
		}
		copy(p.hist[i], h)
	}
	copy(p.tags, st.Tags)
	copy(p.patVal, st.PatVal)
	copy(p.patCtr, st.PatCtr)
	return nil
}

// AllPredictorStates enumerates one zero value of every concrete
// PredictorState so serialization layers (internal/checkpoint) can
// register the closed set without listing it themselves.
func AllPredictorStates() []PredictorState {
	return []PredictorState{
		DynamicRVPState{},
		StaticRVPState{},
		GabbayRVPState{},
		NoPredictorState{},
		LVPState{},
		StrideState{},
		ContextState{},
	}
}
