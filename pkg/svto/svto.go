// Package svto is the public entry point of the standby-leakage optimizer:
// simultaneous assignment of the sleep-mode input state and the per-gate
// Vt/Tox cell versions of a combinational circuit, minimizing total standby
// leakage (subthreshold + gate tunneling) under a delay constraint, after
// Lee, Deogun, Blaauw and Sylvester, DATE 2004.
//
// It wraps the internal netlist/library/timing/search machinery behind a
// single call over a job-oriented, JSON-serializable [Request]:
//
//	res, err := svto.Run(ctx, svto.Request{
//		Design: svto.DesignSpec{Bench: benchText}, // ISCAS .bench netlist
//		Search: svto.SearchSpec{Penalty: 0.05},    // 5% delay budget
//	}, svto.RunOptions{})
//
// so applications do not import svto/internal/... packages.  The same
// Request marshals to the wire format the leakoptd daemon accepts, which is
// what makes the optimizer consumable as a service: build one Request, then
// either Run it in-process or POST it to /v1/jobs.  Cancel the context (or
// set SearchSpec.TimeLimitSec) to stop a long search early with the best
// solution found so far; set SearchSpec.Workers to spread the search over
// multiple CPUs.
package svto

import (
	"context"
	"fmt"
	"time"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
)

// Algorithm names a search strategy.
type Algorithm string

const (
	// Heuristic1 runs one greedy state-tree descent followed by one greedy
	// gate-tree descent — the fast default.
	Heuristic1 Algorithm = "heuristic1"
	// Heuristic2 seeds with Heuristic1, then searches the state tree until
	// the time limit or context cancels it.
	Heuristic2 Algorithm = "heuristic2"
	// Exact runs the full two-tree branch-and-bound (small circuits only).
	Exact Algorithm = "exact"
	// StateOnly searches the sleep vector with all gates at their fastest
	// version — the traditional baseline.
	StateOnly Algorithm = "state-only"
)

// Library names a cell-library construction policy.
type Library string

const (
	// Lib4Option builds up to four Vt/Tox trade-off versions per state.
	Lib4Option Library = "4opt"
	// Lib2Option restricts each state to two versions.
	Lib2Option Library = "2opt"
	// Lib4OptionUniform is Lib4Option with uniform stack assignment.
	Lib4OptionUniform Library = "4opt-uniform"
	// Lib2OptionUniform is Lib2Option with uniform stack assignment.
	Lib2OptionUniform Library = "2opt-uniform"
)

// Progress is a snapshot of a running search, delivered to
// RunOptions.Progress and served live by the daemon's job-status endpoint.
type Progress struct {
	StateNodes int64 `json:"state_nodes"` // state-tree nodes visited
	GateTrials int64 `json:"gate_trials"` // gate-tree version trials
	Leaves     int64 `json:"leaves"`      // complete states evaluated
	Pruned     int64 `json:"pruned"`      // branches cut by the leakage bound
	// RelaxBounds / RelaxPruned instrument the Lagrangian bound cascade:
	// relaxation probes paid and the branches they pruned.
	RelaxBounds int64         `json:"relax_bounds,omitempty"`
	RelaxPruned int64         `json:"relax_pruned,omitempty"`
	BestLeakNA  float64       `json:"best_leak_na"` // incumbent total leakage (nA)
	Elapsed     time.Duration `json:"elapsed_ns"`   // time since the search started
}

// Checkpoint configures crash-safe search execution.  It is an execution
// concern, not part of the job Request: the daemon owns one snapshot path
// per job, and local callers pick their own file.
type Checkpoint struct {
	// Path is the snapshot file.  Setting it turns checkpointing on.
	Path string
	// Interval is the periodic write cadence; 0 defaults to 30s.  A final
	// snapshot is also written whenever an enabled search is interrupted.
	Interval time.Duration
	// Resume loads Path before searching and continues from it.  A missing
	// file starts fresh; a snapshot from a different design, library or
	// objective is rejected.
	Resume bool
}

// RunOptions carries the execution-side knobs of a Run call — everything a
// job submitter does not control: progress delivery, crash-safety, and the
// shared characterized baseline.
type RunOptions struct {
	// Progress, when non-nil, receives periodic search snapshots.
	Progress func(Progress)
	// Checkpoint enables crash-safe execution for the tree searches
	// (Heuristic2, Exact).
	Checkpoint Checkpoint
	// Baseline, when non-nil, supplies a pre-characterized cell library
	// shared across runs; its spec must match Request.Library.
	Baseline *Baseline
}

// GateAssignment is one gate's optimized cell-version choice.
type GateAssignment struct {
	Gate    string  `json:"gate"`    // output net name
	Cell    string  `json:"cell"`    // library cell (INV, NAND2, ...)
	Version string  `json:"version"` // selected Vt/Tox version name
	Kind    string  `json:"kind"`    // version kind (fast, dual, ...)
	LeakNA  float64 `json:"leak_na"` // standby leakage in this state (nA)
}

// Stats summarizes the search effort.
type Stats struct {
	StateNodes int64 `json:"state_nodes"`
	GateTrials int64 `json:"gate_trials"`
	Leaves     int64 `json:"leaves"`
	Pruned     int64 `json:"pruned"`
	// RelaxBounds / RelaxPruned instrument the Lagrangian bound cascade.
	RelaxBounds int64         `json:"relax_bounds,omitempty"`
	RelaxPruned int64         `json:"relax_pruned,omitempty"`
	Runtime     time.Duration `json:"runtime_ns"`
	Interrupted bool          `json:"interrupted,omitempty"` // search cut short by cancellation or limits
	// WorkerFailures describes search workers that panicked and were
	// isolated (one message per dead worker); empty on a clean run.
	WorkerFailures []string `json:"worker_failures,omitempty"`
	// CheckpointWrites and CheckpointErrors count snapshot write attempts
	// and failures (zero unless checkpointing was enabled).
	CheckpointWrites int64 `json:"checkpoint_writes,omitempty"`
	CheckpointErrors int64 `json:"checkpoint_errors,omitempty"`
}

// Result is a complete standby assignment for the optimized design.  Its
// exported fields marshal to the JSON the daemon serves, so remote clients
// see the same result shape in-process callers do.
type Result struct {
	Design string `json:"design"`
	// Inputs and SleepVector give the standby value per primary input.
	Inputs      []string `json:"inputs"`
	SleepVector []bool   `json:"sleep_vector"`
	// Gates lists the per-gate version assignment in compiled order.
	Gates []GateAssignment `json:"gates,omitempty"`
	// LeakNA is the optimized total standby leakage (nA); IsubNA and
	// IgateNA are its subthreshold and gate-tunneling components.
	LeakNA  float64 `json:"leak_na"`
	IsubNA  float64 `json:"isub_na"`
	IgateNA float64 `json:"igate_na"`
	// DelayPS is the post-assignment circuit delay; BudgetPS the delay
	// constraint; DminPS/DmaxPS the all-fast and all-slow anchors.
	DelayPS  float64 `json:"delay_ps"`
	BudgetPS float64 `json:"budget_ps"`
	DminPS   float64 `json:"dmin_ps"`
	DmaxPS   float64 `json:"dmax_ps"`
	// BaselineNA is the random-vector average leakage (0 unless
	// SearchSpec.BaselineVectors was set).
	BaselineNA float64 `json:"baseline_na,omitempty"`

	// Interrupted reports a search cut short by cancellation, an expired
	// time limit or an exhausted leaf budget: the result is the best found,
	// not the search's fixpoint.  Mirrored from Stats so degraded-run state
	// is first-class in the API rather than buried in counters.
	Interrupted bool `json:"interrupted,omitempty"`
	// WorkerFailures is non-empty when search workers died and the search
	// degraded gracefully (survivors re-ran the dead workers' subtrees).
	WorkerFailures []string `json:"worker_failures,omitempty"`
	// Resumed reports that the run continued from a checkpoint snapshot;
	// PriorRuntime is the wall clock spent by the crashed run(s) it
	// continued (included in Stats.Runtime).
	Resumed      bool          `json:"resumed,omitempty"`
	PriorRuntime time.Duration `json:"prior_runtime_ns,omitempty"`

	Stats Stats `json:"stats"`

	circ *netlist.Circuit
	lib  *library.Library
	prob *core.Problem
	sol  *core.Solution
}

// ReductionX is the headline metric: baseline over optimized leakage.
// It returns 0 when no baseline was requested.
func (r *Result) ReductionX() float64 {
	if r.BaselineNA == 0 {
		return 0
	}
	return r.BaselineNA / r.LeakNA
}

// Run loads the design, characterizes (or reuses the shared) standby cell
// library, and runs the requested search under ctx.
//
// Run can return both a non-nil Result and a non-nil error: when every
// search worker died (errors.Is(err, core.ErrWorkerPanic) through the
// wrapped chain) the Result carries the best solution found before the
// failure, with the per-worker diagnostics in Result.WorkerFailures.
// Callers that only check err will never use a silently degraded result;
// callers that want the partial answer can keep it.
func Run(ctx context.Context, req Request, opts RunOptions) (*Result, error) {
	comp, err := Compile(req, opts.Baseline)
	if err != nil {
		return nil, err
	}
	opt, err := comp.CoreOptions(req, opts)
	if err != nil {
		return nil, err
	}
	return comp.Solve(ctx, req, opt, nil)
}

// isMapped reports whether every gate is directly library-backed.
func isMapped(c *netlist.Circuit) bool {
	for i := range c.Gates {
		if c.Gates[i].CellName() == "" {
			return false
		}
	}
	return true
}

func coreAlgorithm(a Algorithm) (core.Algorithm, error) {
	if a == "" {
		return core.AlgHeuristic1, nil
	}
	alg, err := core.ParseAlgorithm(string(a))
	if err != nil {
		return 0, fmt.Errorf("svto: unknown algorithm %q", a)
	}
	return alg, nil
}

// LibraryOptions resolves a library policy into build options; "" means
// Lib4Option.  It is the one parser of the policy names, shared by request
// validation and the leakopt CLI's -library flag.
func LibraryOptions(l Library) (library.Options, error) {
	switch l {
	case "", Lib4Option:
		return library.DefaultOptions(), nil
	case Lib2Option:
		return library.TwoOption(), nil
	case Lib4OptionUniform:
		o := library.DefaultOptions()
		o.UniformStack = true
		return o, nil
	case Lib2OptionUniform:
		o := library.TwoOption()
		o.UniformStack = true
		return o, nil
	default:
		return library.Options{}, fmt.Errorf("svto: unknown library policy %q", l)
	}
}
