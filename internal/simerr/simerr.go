// Package simerr defines the simulator's typed error taxonomy. Every
// structured failure on the library path — invalid configurations,
// emulator faults, watchdog aborts, injected faults, cancelled runs — is
// reported as a *SimError carrying the failing subsystem plus whatever
// run coordinates (workload, PC, cycle) were known at the failure site.
// Sentinel errors (ErrNoProgress, ErrConfig, ErrInjected) thread through
// the wrapping so callers classify failures with errors.Is without
// string-matching.
package simerr

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel errors, matched with errors.Is through any SimError wrapping.
var (
	// ErrNoProgress reports a forward-progress watchdog abort: no
	// instruction committed for the configured number of cycles.
	ErrNoProgress = errors.New("no forward progress")
	// ErrConfig reports an invalid configuration (cache geometry,
	// counter sizing, machine widths).
	ErrConfig = errors.New("invalid configuration")
	// ErrInjected reports a deliberately injected fault (see
	// internal/faultinject).
	ErrInjected = errors.New("injected fault")
	// ErrCorrupt reports damaged durable state: a log record whose
	// checksum does not validate, or an emulator snapshot that does not
	// fit its program. Corruption is recoverable — callers discard the
	// damaged record and recompute — so this is never fatal to a sweep.
	ErrCorrupt = errors.New("corrupt journal or snapshot data")
	// ErrDivergence reports that the lockstep differential harness
	// found the timing pipeline committing a different (PC, dest-reg,
	// value) stream or architectural state than the reference emulator.
	ErrDivergence = errors.New("pipeline diverged from reference emulator")
)

// SimError is the simulator's structured error: which subsystem failed
// and, when known, where in the run. Zero-valued coordinate fields mean
// "unknown", not "cycle/PC zero"; HasPC/HasCycle disambiguate.
type SimError struct {
	Stage    string // failing subsystem: "pipeline", "mem", "core", "emu", "exp", "faultinject", "journal", "lockstep"
	Workload string // workload / program name, when known
	PC       uint64 // simulated-memory address of the faulting instruction
	Cycle    int64  // simulated cycle of the failure
	HasPC    bool
	HasCycle bool
	Err      error // underlying cause (never nil)
}

// Error implements error.
func (e *SimError) Error() string {
	var b strings.Builder
	if e.Stage != "" {
		b.WriteString(e.Stage)
	} else {
		b.WriteString("sim")
	}
	if e.Workload != "" {
		fmt.Fprintf(&b, " [%s]", e.Workload)
	}
	if e.HasPC {
		fmt.Fprintf(&b, " pc=%#x", e.PC)
	}
	if e.HasCycle {
		fmt.Fprintf(&b, " cycle=%d", e.Cycle)
	}
	b.WriteString(": ")
	b.WriteString(e.Err.Error())
	return b.String()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *SimError) Unwrap() error { return e.Err }

// New wraps err as a SimError for the given stage. It returns nil for a
// nil err so call sites can wrap unconditionally.
func New(stage string, err error) error {
	if err == nil {
		return nil
	}
	return &SimError{Stage: stage, Err: err}
}

// Newf wraps a fresh formatted error for the stage.
func Newf(stage, format string, args ...any) error {
	return &SimError{Stage: stage, Err: fmt.Errorf(format, args...)}
}

// At wraps err with full run coordinates.
func At(stage, workload string, pc uint64, cycle int64, err error) error {
	if err == nil {
		return nil
	}
	return &SimError{
		Stage: stage, Workload: workload,
		PC: pc, Cycle: cycle, HasPC: true, HasCycle: true,
		Err: err,
	}
}

// WithWorkload attributes err to a workload: if err already is (or
// wraps) a SimError missing its workload, a copy of the outermost
// SimError is re-issued with the name filled in; otherwise err is
// wrapped in a fresh one. Nil stays nil.
func WithWorkload(workload string, err error) error {
	if err == nil {
		return nil
	}
	var se *SimError
	if errors.As(err, &se) && err == error(se) {
		if se.Workload != "" {
			return err
		}
		cp := *se
		cp.Workload = workload
		return &cp
	}
	return &SimError{Stage: "exp", Workload: workload, Err: err}
}

// transientErr marks an error as transient (worth one retry).
type transientErr struct{ err error }

func (t *transientErr) Error() string { return "transient: " + t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient marks err as transient: a retry of the same run may
// succeed (injected soft faults, resource exhaustion). Nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err (or any error it wraps) was marked
// with Transient.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}
