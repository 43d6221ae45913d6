package core

import (
	"errors"
	"fmt"
)

// Sentinel errors of the search layer.  All are returned wrapped with
// context; match with errors.Is.
var (
	// ErrInvalidOptions reports a structurally invalid Options value,
	// detected up front before any work runs.
	ErrInvalidOptions = errors.New("core: invalid options")
	// ErrWorkerPanic reports that every worker of a tree search died
	// (panic or leaf-evaluation error).  Solve still returns the incumbent
	// alongside it, so callers can keep the partial result.
	ErrWorkerPanic = errors.New("core: all search workers died")
	// ErrCheckpointMismatch reports a resume snapshot whose fingerprint or
	// contents disagree with the current (circuit, library, options).
	ErrCheckpointMismatch = errors.New("core: checkpoint does not match this problem")
)

// Validate checks Options for values that can never be meant: negative
// budgets and counts, and checkpoint configurations that could not work.
// Solve calls it first, so misconfiguration fails fast with a wrapped
// ErrInvalidOptions instead of surfacing as a hung or silently-wrong run.
func (o Options) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
	}
	if o.Workers < 0 {
		return bad("negative Workers %d", o.Workers)
	}
	if o.MaxLeaves < 0 {
		return bad("negative MaxLeaves %d", o.MaxLeaves)
	}
	if o.TimeLimit < 0 {
		return bad("negative TimeLimit %v", o.TimeLimit)
	}
	if o.SplitDepth < 0 {
		return bad("negative SplitDepth %d", o.SplitDepth)
	}
	if o.RefinePasses < 0 {
		return bad("negative RefinePasses %d", o.RefinePasses)
	}
	if o.ProgressInterval < 0 {
		return bad("negative ProgressInterval %v", o.ProgressInterval)
	}
	ck := o.Checkpoint
	if ck.Path == "" {
		if ck.Resume {
			return bad("Checkpoint.Resume without Checkpoint.Path")
		}
		if ck.Interval != 0 {
			return bad("Checkpoint.Interval %v without Checkpoint.Path", ck.Interval)
		}
		return nil
	}
	if ck.Interval <= 0 {
		return bad("Checkpoint.Path %q with zero Interval (a snapshot cadence is required)", ck.Path)
	}
	if o.Algorithm != AlgHeuristic2 && o.Algorithm != AlgExact {
		return bad("checkpointing requires a tree search (heuristic2 or exact), not %v", o.Algorithm)
	}
	return nil
}
