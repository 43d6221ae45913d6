package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/library"
	"svto/internal/sta"
)

// The leaf-fault hooks below are Problem.leafFault closures.  Each counts
// the leaf attempts that every tree-search worker makes, so a hook fires at
// the same attempt regardless of worker count.

// errInjectedFault is the error failLeafEvery injects into leaf evaluation.
var errInjectedFault = errors.New("core: injected leaf fault")

// failLeafEvery fails every n-th leaf attempt with errInjectedFault,
// exercising the worker-death path without a panic.
func failLeafEvery(n int64) func() error {
	var attempts atomic.Int64
	return func() error {
		if k := attempts.Add(1); k%n == 0 {
			return fmt.Errorf("%w at leaf attempt %d", errInjectedFault, k)
		}
		return nil
	}
}

// panicWorkerAfter panics the worker that makes the n-th leaf attempt (one
// worker dies; survivors continue), exercising the recover/requeue/degrade
// path.
func panicWorkerAfter(n int64) func() error {
	var attempts atomic.Int64
	return func() error {
		if k := attempts.Add(1); k == n {
			panic(fmt.Sprintf("injected worker panic at leaf attempt %d", k))
		}
		return nil
	}
}

// cancelAfterLeaves stops the search after n leaf attempts as if its
// context had been canceled: a deterministic interruption point, where
// wall-clock cancellation lands at a different leaf every run.
func cancelAfterLeaves(n int64) func() error {
	var attempts atomic.Int64
	return func() error {
		if attempts.Add(1) > n {
			return context.Canceled
		}
		return nil
	}
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Algorithm: AlgHeuristic2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative workers", Options{Workers: -1}},
		{"negative max leaves", Options{MaxLeaves: -5}},
		{"negative time limit", Options{TimeLimit: -time.Second}},
		{"negative split depth", Options{SplitDepth: -2}},
		{"negative refine passes", Options{RefinePasses: -1}},
		{"negative progress interval", Options{ProgressInterval: -time.Millisecond}},
		{"checkpoint path without interval", Options{
			Algorithm:  AlgHeuristic2,
			Checkpoint: CheckpointOptions{Path: "x.ckpt"},
		}},
		{"checkpoint interval without path", Options{
			Checkpoint: CheckpointOptions{Interval: time.Second},
		}},
		{"resume without path", Options{
			Checkpoint: CheckpointOptions{Resume: true},
		}},
		{"checkpoint with non-tree algorithm", Options{
			Algorithm:  AlgHeuristic1,
			Checkpoint: CheckpointOptions{Path: "x.ckpt", Interval: time.Second},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); !errors.Is(err, ErrInvalidOptions) {
				t.Errorf("want ErrInvalidOptions, got %v", err)
			}
		})
	}
	// Solve must apply the same validation up front.
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	if _, err := p.Solve(context.Background(), Options{Workers: -1}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("Solve did not validate options: %v", err)
	}
}

// A panic in one of N>1 workers must not take down the search: the failure
// is recorded (with its stack), the dead worker's subtree is redistributed,
// and the exhaustive result still matches an undisturbed run.
func TestWorkerPanicIsolation(t *testing.T) {
	ref := midCircuit(t)
	const penalty = 0.05
	want, err := ref.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	p := midCircuit(t)
	p.leafFault = panicWorkerAfter(3)
	sol, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 4,
	})
	if err != nil {
		t.Fatalf("search with one dead worker must degrade gracefully, got %v", err)
	}
	checkSolution(t, p, sol, p.Budget(penalty))
	if math.Abs(sol.Leak-want.Leak) > 1e-9 {
		t.Errorf("leak %.9f != undisturbed %.9f (dead worker's subtree lost?)", sol.Leak, want.Leak)
	}
	if len(sol.Stats.WorkerFailures) != 1 {
		t.Fatalf("want 1 recorded failure, got %+v", sol.Stats.WorkerFailures)
	}
	wf := sol.Stats.WorkerFailures[0]
	if !strings.Contains(wf.Err, "injected worker panic") {
		t.Errorf("failure message %q does not name the panic", wf.Err)
	}
	if !strings.Contains(wf.Stack, "goroutine") {
		t.Errorf("failure has no stack: %q", wf.Stack)
	}
	if sol.Stats.Interrupted {
		t.Error("survivors finished the tree; search must not report Interrupted")
	}
}

// When every worker dies, Solve returns the incumbent alongside a joined
// ErrWorkerPanic instead of discarding the work done so far.
func TestAllWorkersDying(t *testing.T) {
	const penalty = 0.05
	t.Run("sequential panic", func(t *testing.T) {
		p := midCircuit(t)
		p.leafFault = panicWorkerAfter(2)
		sol, err := p.Solve(context.Background(), Options{
			Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
		})
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("want ErrWorkerPanic, got %v", err)
		}
		if sol == nil {
			t.Fatal("incumbent discarded")
		}
		checkSolution(t, p, sol, p.Budget(penalty))
		if !sol.Stats.Interrupted {
			t.Error("degraded search must report Interrupted")
		}
		if len(sol.Stats.WorkerFailures) != 1 || sol.Stats.WorkerFailures[0].Stack == "" {
			t.Errorf("failure not recorded with stack: %+v", sol.Stats.WorkerFailures)
		}
	})
	t.Run("every parallel worker errors", func(t *testing.T) {
		p := midCircuit(t)
		p.leafFault = failLeafEvery(1) // every leaf attempt fails
		sol, err := p.Solve(context.Background(), Options{
			Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 3,
		})
		if !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("want ErrWorkerPanic, got %v", err)
		}
		if !errors.Is(err, errInjectedFault) {
			t.Errorf("joined error should carry the leaf faults: %v", err)
		}
		if sol == nil {
			t.Fatal("incumbent discarded")
		}
		checkSolution(t, p, sol, p.Budget(penalty))
		if len(sol.Stats.WorkerFailures) == 0 {
			t.Error("no failures recorded")
		}
	})
}

// Graceful cancellation at arbitrary points: wherever the search stops, the
// incumbent must be a valid delay-feasible solution, Interrupted must be
// set, and the final Progress snapshot must agree with the returned result.
func TestSolveCancelAnywhere(t *testing.T) {
	const penalty = 0.05
	ref := midCircuit(t)
	full, err := ref.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := full.Stats.Leaves
	if total < 10 {
		t.Fatalf("circuit too small for cancellation points (%d leaves)", total)
	}

	rng := rand.New(rand.NewSource(99))
	points := make([]int64, 0, 8)
	for len(points) < 8 {
		points = append(points, 1+rng.Int63n(total-1))
	}
	for _, workers := range []int{1, 3} {
		for _, n := range points {
			p := midCircuit(t)
			p.leafFault = cancelAfterLeaves(n)
			var last Progress
			sol, err := p.Solve(context.Background(), Options{
				Algorithm: AlgHeuristic2, Penalty: penalty, Workers: workers,
				Progress: func(pr Progress) { last = pr },
			})
			if err != nil {
				t.Fatalf("workers=%d cancel@%d: %v", workers, n, err)
			}
			checkSolution(t, p, sol, p.Budget(penalty))
			if !sol.Stats.Interrupted {
				t.Errorf("workers=%d cancel@%d: Interrupted not set", workers, n)
			}
			if last.BestLeak != sol.Leak {
				t.Errorf("workers=%d cancel@%d: final Progress BestLeak %.9f != solution %.9f",
					workers, n, last.BestLeak, sol.Leak)
			}
			if last.Leaves != sol.Stats.Leaves {
				t.Errorf("workers=%d cancel@%d: final Progress leaves %d != stats %d",
					workers, n, last.Leaves, sol.Stats.Leaves)
			}
		}
	}
}

// crashResume simulates a process death: the search is cut off after
// cancelEvery leaf attempts (never when 0; final snapshot written on the
// way out, like a SIGTERM/cancel), the Problem is rebuilt from scratch
// (new process: all pointers differ), and the search resumes from the
// snapshot.  It loops until a resumed run completes, then returns the
// final solution and the problem it ran on.
func crashResume(t *testing.T, build func(t *testing.T) *Problem, opt Options, cancelEvery int64) (*Problem, *Solution) {
	t.Helper()
	resume := false
	for iter := 0; iter < 100; iter++ {
		p := build(t)
		if cancelEvery > 0 {
			p.leafFault = cancelAfterLeaves(cancelEvery)
		}
		o := opt
		o.Checkpoint.Resume = resume
		resume = true
		sol, err := p.Solve(context.Background(), o)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if !sol.Stats.Interrupted {
			if _, err := os.Stat(opt.Checkpoint.Path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("completed search left its checkpoint behind (stat: %v)", err)
			}
			return p, sol
		}
		if _, err := os.Stat(opt.Checkpoint.Path); err != nil {
			t.Fatalf("iteration %d: interrupted search left no checkpoint: %v", iter, err)
		}
	}
	t.Fatal("crash/resume loop did not converge in 100 iterations")
	return nil, nil
}

// The tentpole acceptance test: kill a search over and over, resuming each
// time, and the final objective must match an uninterrupted run —
// bit-identical for Workers=1, within LeakEps for parallel workers.
func TestCheckpointCrashResumeEquivalence(t *testing.T) {
	const penalty = 0.05
	ckOpt := func(dir string) Options {
		return Options{
			Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
			Checkpoint: CheckpointOptions{
				Path:     filepath.Join(dir, "search.ckpt"),
				Interval: time.Hour, // periodic writes off: the final-on-interrupt write is the one under test
			},
		}
	}

	// Reference: uninterrupted, with checkpointing on (same pool engine and
	// split depth as the crashed runs).
	refP, ref := crashResume(t, midCircuit, ckOpt(t.TempDir()), 0)
	checkSolution(t, refP, ref, refP.Budget(penalty))

	// Cross-check against the plain sequential engine.
	plain, err := midCircuit(t).Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Leak-ref.Leak) > 1e-9 {
		t.Fatalf("pool engine leak %.9f != sequential %.9f", ref.Leak, plain.Leak)
	}

	t.Run("workers=1 bit-identical", func(t *testing.T) {
		p, sol := crashResume(t, midCircuit, ckOpt(t.TempDir()), 40)
		checkSolution(t, p, sol, p.Budget(penalty))
		if sol.Leak != ref.Leak || sol.Isub != ref.Isub || sol.Delay != ref.Delay {
			t.Errorf("resumed result (%.12f/%.12f/%.12f) != uninterrupted (%.12f/%.12f/%.12f)",
				sol.Leak, sol.Isub, sol.Delay, ref.Leak, ref.Isub, ref.Delay)
		}
		for i := range sol.State {
			if sol.State[i] != ref.State[i] {
				t.Fatalf("resumed sleep vector differs at input %d", i)
			}
		}
	})

	t.Run("workers=2 within LeakEps", func(t *testing.T) {
		opt := ckOpt(t.TempDir())
		opt.Workers = 2
		p, sol := crashResume(t, midCircuit, opt, 60)
		checkSolution(t, p, sol, p.Budget(penalty))
		if math.Abs(sol.Leak-ref.Leak) > LeakEps {
			t.Errorf("resumed parallel leak %.12f != uninterrupted %.12f", sol.Leak, ref.Leak)
		}
	})

	t.Run("exact algorithm", func(t *testing.T) {
		build := func(t *testing.T) *Problem {
			return newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
		}
		want, err := build(t).Solve(context.Background(), Options{
			Algorithm: AlgExact, Penalty: penalty, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{
			Algorithm: AlgExact, Penalty: penalty, Workers: 1,
			Checkpoint: CheckpointOptions{
				Path:     filepath.Join(t.TempDir(), "exact.ckpt"),
				Interval: time.Hour,
			},
		}
		p, sol := crashResume(t, build, opt, 2)
		checkSolution(t, p, sol, p.Budget(penalty))
		if sol.Leak != want.Leak {
			t.Errorf("resumed exact leak %.12f != uninterrupted %.12f", sol.Leak, want.Leak)
		}
	})
}

// Regression for the requeued-task double count: when a run is interrupted,
// each worker's in-flight task goes back on the queue for the next run, so
// the counters the worker accumulated inside that task must be rolled back
// before the final snapshot — otherwise every kill re-counts the partial
// work and the chain's totals drift above an uninterrupted run's.
func TestCheckpointResumeStatsEquivalence(t *testing.T) {
	const penalty = 0.05
	ckOpt := func(dir string) Options {
		return Options{
			Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
			Checkpoint: CheckpointOptions{
				Path:     filepath.Join(dir, "stats.ckpt"),
				Interval: time.Hour,
			},
		}
	}
	// killChain runs a kill/resume chain to completion, returning every
	// leg's returned stats (cumulative: each resume seeds from the
	// snapshot totals).
	killChain := func(t *testing.T, build func(t *testing.T) *Problem, opt Options) []SearchStats {
		t.Helper()
		var legs []SearchStats
		resume := false
		for iter := 0; iter < 100; iter++ {
			p := build(t)
			p.leafFault = cancelAfterLeaves(50)
			o := opt
			o.Checkpoint.Resume = resume
			resume = true
			sol, err := p.Solve(context.Background(), o)
			if err != nil {
				t.Fatalf("leg %d: %v", iter, err)
			}
			legs = append(legs, sol.Stats)
			if !sol.Stats.Interrupted {
				return legs
			}
		}
		t.Fatal("kill/resume chain did not converge in 100 legs")
		return nil
	}
	checkLegs := func(t *testing.T, legs []SearchStats) {
		t.Helper()
		if len(legs) < 3 {
			t.Fatalf("only %d legs; lower the kill threshold so the chain is actually exercised", len(legs))
		}
		for i := 1; i < len(legs); i++ {
			prev, cur := legs[i-1], legs[i]
			for _, c := range []struct {
				name string
				a, b int64
			}{
				{"Leaves", prev.Leaves, cur.Leaves},
				{"StateNodes", prev.StateNodes, cur.StateNodes},
				{"GateTrials", prev.GateTrials, cur.GateTrials},
				{"Pruned", prev.Pruned, cur.Pruned},
			} {
				if c.b < c.a {
					t.Errorf("leg %d: cumulative %s went backwards (%d -> %d)", i, c.name, c.a, c.b)
				}
			}
		}
	}

	t.Run("pruning inert: totals exact", func(t *testing.T) {
		// Bound pruning consults the live incumbent, and incumbents are
		// (deliberately) never rolled back, so a resumed task can prune
		// subtrees the uninterrupted run walked.  Disable bounds so every
		// leg replays the identical tree and the chain's final totals must
		// match an uninterrupted run exactly.
		build := func(t *testing.T) *Problem {
			p := midCircuit(t)
			p.Ablate.NoStateBounds = true
			return p
		}
		_, ref := crashResume(t, build, ckOpt(t.TempDir()), 0)
		legs := killChain(t, build, ckOpt(t.TempDir()))
		checkLegs(t, legs)
		final := legs[len(legs)-1]
		for _, c := range []struct {
			name string
			a, b int64
		}{
			{"Leaves", final.Leaves, ref.Stats.Leaves},
			{"StateNodes", final.StateNodes, ref.Stats.StateNodes},
			{"GateTrials", final.GateTrials, ref.Stats.GateTrials},
			{"Pruned", final.Pruned, ref.Stats.Pruned},
		} {
			if c.a != c.b {
				t.Errorf("final %s %d != uninterrupted %d", c.name, c.a, c.b)
			}
		}
	})

	t.Run("default bounds: no overcount", func(t *testing.T) {
		// With bounds on, resumed tasks may legitimately prune more than the
		// uninterrupted run (tighter incumbent from the start of the task),
		// so exact equality is too strong — but the chain must never count
		// MORE than the uninterrupted run, which is precisely what the
		// requeued-task double count produced.
		_, ref := crashResume(t, midCircuit, ckOpt(t.TempDir()), 0)
		legs := killChain(t, midCircuit, ckOpt(t.TempDir()))
		checkLegs(t, legs)
		final := legs[len(legs)-1]
		if final.Leaves > ref.Stats.Leaves {
			t.Errorf("chain Leaves %d > uninterrupted %d (requeued task double-counted)",
				final.Leaves, ref.Stats.Leaves)
		}
		if final.StateNodes > ref.Stats.StateNodes {
			t.Errorf("chain StateNodes %d > uninterrupted %d (requeued task double-counted)",
				final.StateNodes, ref.Stats.StateNodes)
		}
	})
}

// Budgets continue across a resume instead of resetting: a run whose
// MaxLeaves was exhausted before the crash stays exhausted.
func TestCheckpointResumeContinuesLeafBudget(t *testing.T) {
	const penalty = 0.05
	path := filepath.Join(t.TempDir(), "budget.ckpt")
	opt := Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1, MaxLeaves: 10,
		Checkpoint: CheckpointOptions{Path: path, Interval: time.Hour},
	}
	p1 := midCircuit(t)
	crashed, err := p1.Solve(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !crashed.Stats.Interrupted {
		t.Fatal("leaf budget did not interrupt the first run")
	}

	opt.Checkpoint.Resume = true
	p2 := midCircuit(t)
	resumed, err := p2.Solve(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Stats.Interrupted {
		t.Error("resumed run must still be over its leaf budget")
	}
	if resumed.Stats.Leaves != crashed.Stats.Leaves {
		t.Errorf("resumed run evaluated new leaves (%d -> %d) despite an exhausted budget",
			crashed.Stats.Leaves, resumed.Stats.Leaves)
	}
	if math.Abs(resumed.Leak-crashed.Leak) > 1e-9 {
		t.Errorf("resumed incumbent %.9f != crashed incumbent %.9f", resumed.Leak, crashed.Leak)
	}
}

func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	const penalty = 0.05
	path := filepath.Join(t.TempDir(), "mm.ckpt")
	p := midCircuit(t)
	p.leafFault = cancelAfterLeaves(5)
	opt := Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
		Checkpoint: CheckpointOptions{Path: path, Interval: time.Hour},
	}
	if _, err := p.Solve(context.Background(), opt); err != nil {
		t.Fatal(err)
	}

	t.Run("different penalty", func(t *testing.T) {
		o := opt
		o.Penalty = 0.10
		o.Checkpoint.Resume = true
		if _, err := midCircuit(t).Solve(context.Background(), o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("want ErrCheckpointMismatch, got %v", err)
		}
	})
	t.Run("different circuit", func(t *testing.T) {
		o := opt
		o.Checkpoint.Resume = true
		other := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
		if _, err := other.Solve(context.Background(), o); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("want ErrCheckpointMismatch, got %v", err)
		}
	})
	t.Run("corrupt file", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.ckpt")
		if err := os.WriteFile(bad, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Checkpoint.Path = bad
		o.Checkpoint.Resume = true
		if _, err := midCircuit(t).Solve(context.Background(), o); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("want checkpoint.ErrCorrupt, got %v", err)
		}
	})
	// Snapshots that decode cleanly but do not describe this search.
	for _, tc := range []struct {
		name   string
		mutate func(*checkpoint.Snapshot)
	}{
		// An all-unassigned vector is the right length and holds only
		// valid values, but it is not a subtree at the snapshot's depth.
		{"malformed frontier task", func(snap *checkpoint.Snapshot) {
			for i := range snap.Frontier[0] {
				snap.Frontier[0][i] = 2
			}
		}},
		{"NaN incumbent leakage", func(snap *checkpoint.Snapshot) { snap.Incumbent.Leak = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := checkpoint.Load(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			if snap.SplitDepth == 0 || len(snap.Frontier) == 0 {
				t.Fatalf("snapshot at depth %d with %d tasks is too shallow to mutate", snap.SplitDepth, len(snap.Frontier))
			}
			tc.mutate(snap)
			bad := filepath.Join(t.TempDir(), "mutated.ckpt")
			if err := checkpoint.Save(nil, bad, snap); err != nil {
				t.Fatal(err)
			}
			o := opt
			o.Checkpoint.Path = bad
			o.Checkpoint.Resume = true
			if _, err := midCircuit(t).Solve(context.Background(), o); !errors.Is(err, ErrCheckpointMismatch) {
				t.Errorf("want ErrCheckpointMismatch, got %v", err)
			}
		})
	}
	t.Run("missing file starts fresh", func(t *testing.T) {
		o := opt
		o.Checkpoint.Path = filepath.Join(t.TempDir(), "absent.ckpt")
		o.Checkpoint.Resume = true
		sol, err := midCircuit(t).Solve(context.Background(), o)
		if err != nil {
			t.Fatalf("missing snapshot must mean a fresh start, got %v", err)
		}
		if sol.Stats.Interrupted {
			t.Error("fresh start unexpectedly interrupted")
		}
	})
}

// failCkFS fails every checkpoint write attempt.
type failCkFS struct{ checkpoint.FS }

func (failCkFS) CreateTemp(dir, pattern string) (checkpoint.File, error) {
	return nil, errors.New("injected checkpoint write failure")
}

// Checkpoint write failures must never abort the search: they are counted
// in the stats and the run otherwise behaves identically.
func TestCheckpointWriteFailureIsNonFatal(t *testing.T) {
	const penalty = 0.05
	p := midCircuit(t)
	p.leafFault = cancelAfterLeaves(5) // force an interruption => a final write attempt
	sol, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
		Checkpoint: CheckpointOptions{
			Path:     filepath.Join(t.TempDir(), "failing.ckpt"),
			Interval: time.Hour,
			FS:       failCkFS{checkpoint.OS},
		},
	})
	if err != nil {
		t.Fatalf("checkpoint write failure aborted the search: %v", err)
	}
	checkSolution(t, p, sol, p.Budget(penalty))
	if sol.Stats.CheckpointWrites == 0 {
		t.Error("no checkpoint write was attempted")
	}
	if sol.Stats.CheckpointErrors == 0 {
		t.Error("injected write failure not counted")
	}
}

// NewProblem must reject a library whose cells cannot provide a min-delay
// choice, via the MinDelayChoice error path (historically a panic deep in
// the timer).
func TestNewProblemRejectsMalformedLibrary(t *testing.T) {
	orig := lib(t, library.DefaultOptions())
	// Deep-copy the cells (library.Cached shares instances between tests)
	// and strip every min-delay choice.
	cells := make(map[string]*library.Cell, len(orig.Cells))
	for name, c := range orig.Cells {
		cc := *c
		cc.Choices = make([][]library.Choice, len(c.Choices))
		for s, list := range c.Choices {
			kept := make([]library.Choice, 0, len(list))
			for _, ch := range list {
				if ch.Kind != library.KindMinDelay {
					kept = append(kept, ch)
				}
			}
			cc.Choices[s] = kept
		}
		cells[name] = &cc
	}
	broken := &library.Library{Tech: orig.Tech, Opt: orig.Opt, Cells: cells, Names: orig.Names}
	_, err := NewProblem(tinyCircuit(), broken, sta.DefaultConfig(), ObjTotal)
	if err == nil {
		t.Fatal("malformed library accepted")
	}
	if !strings.Contains(err.Error(), "no min-delay choice") {
		t.Fatalf("unexpected error: %v", err)
	}
}
