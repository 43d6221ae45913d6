package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/sim"
)

// Search tolerances, shared by every algorithm.  The seed implementation
// grew two slightly different pruning epsilons (Exact used best-1e-12,
// Heuristic2 used best exactly) and scattered 1e-9 slack constants over the
// delay checks; these named constants are now the single source of truth.
const (
	// LeakEps is the branch-and-bound pruning tolerance on leakage (nA): a
	// subtree whose admissible lower bound comes within LeakEps of the
	// incumbent cannot improve it meaningfully and is cut.
	LeakEps = 1e-12
	// DelayEps is the feasibility slack (ps) applied to delay-budget
	// comparisons, absorbing float noise from incremental re-propagation.
	DelayEps = 1e-9
)

// Algorithm selects the search strategy Solve runs.
type Algorithm uint8

const (
	// AlgHeuristic1 is the paper's first heuristic: one greedy descent of
	// the state tree followed by one greedy descent of the gate tree.
	AlgHeuristic1 Algorithm = iota
	// AlgHeuristic2 is the paper's second heuristic: Heuristic 1 to seed
	// the incumbent, then a bounded DFS of the state tree (until the
	// context is done or the tree is exhausted), evaluating each leaf with
	// the greedy gate-tree descent.
	AlgHeuristic2
	// AlgExact is the full two-tree branch-and-bound of section 5 (state
	// tree x gate tree).  Limited to MaxExactInputs primary inputs.
	AlgExact
	// AlgStateOnly is the traditional sleep-vector baseline: state-tree
	// search with every gate fixed at its fastest version.
	AlgStateOnly
)

// String names the algorithm like the CLI flags do.
func (a Algorithm) String() string {
	switch a {
	case AlgHeuristic1:
		return "heuristic1"
	case AlgHeuristic2:
		return "heuristic2"
	case AlgExact:
		return "exact"
	case AlgStateOnly:
		return "state-only"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm is the inverse of Algorithm.String: it accepts exactly the
// canonical names ("heuristic1", "heuristic2", "exact", "state-only") and is
// the single parser behind the CLI's -method flag, remote request building
// and pkg/svto request validation — so every entry point agrees on the
// algorithm vocabulary.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case AlgHeuristic1.String():
		return AlgHeuristic1, nil
	case AlgHeuristic2.String():
		return AlgHeuristic2, nil
	case AlgExact.String():
		return AlgExact, nil
	case AlgStateOnly.String():
		return AlgStateOnly, nil
	}
	return 0, fmt.Errorf("core: unknown algorithm %q (want heuristic1|heuristic2|exact|state-only)", s)
}

// Progress is a point-in-time snapshot of a running search, delivered to
// Options.Progress.  BestLeak is the incumbent total leakage (nA).
type Progress struct {
	Counters
	BestLeak float64
	Elapsed  time.Duration
}

// Options configures a Solve call.  The zero value runs Heuristic 1 at a 0%
// delay penalty on all available CPUs.
type Options struct {
	// Algorithm selects the search strategy.
	Algorithm Algorithm
	// Penalty is the delay-penalty fraction (0.05 = the paper's "5%").
	Penalty float64
	// TimeLimit bounds the search wall clock; <= 0 means no limit beyond
	// the context's own deadline.  When it expires the best solution found
	// so far is returned with Stats.Interrupted set.
	TimeLimit time.Duration
	// Workers is the parallel state-tree worker count; <= 0 means
	// GOMAXPROCS.  Workers == 1 reproduces the sequential search exactly.
	Workers int
	// SplitDepth is the state-tree depth at which the search splits into
	// independent subtree tasks; 0 picks a depth automatically from the
	// worker count (0 for one worker without checkpointing: the single
	// task is the root).
	SplitDepth int
	// MaxLeaves, when > 0, stops the search after that many complete
	// states have been evaluated by the tree search.  It counts leaves, not
	// work: the state-tree nodes visited between two leaves are unbounded,
	// so a run without a TimeLimit or context deadline has no time bound.
	// The Heuristic 1 seed descent is free: its leaf does not count against
	// the budget, so MaxLeaves: 1 explores exactly one tree leaf beyond the
	// seed.
	MaxLeaves int64
	// RefinePasses, when > 0, runs that many iterated gate-refinement
	// passes over the search result before returning it.
	RefinePasses int
	// Progress, when non-nil, receives periodic snapshots of the running
	// search from a single goroutine, plus one final snapshot on return.
	// The final snapshot fires after RefinePasses, so its BestLeak always
	// equals the returned solution's leakage — for every algorithm,
	// including a search cancelled before it starts.
	Progress func(Progress)
	// ProgressInterval is the snapshot period (default 100ms).
	ProgressInterval time.Duration
	// Checkpoint enables crash-safe snapshotting and resume for the tree
	// searches; see CheckpointOptions.
	Checkpoint CheckpointOptions
	// Share, when non-nil, is the tree search's incumbent cell (it must be
	// created for this Problem): improvements found here install into it,
	// and improvements arriving from elsewhere (other searches, other
	// processes) tighten this search's pruning bound mid-descent.  The
	// cell is monotone, so sharing it never changes which solution is
	// optimal — only how fast bad subtrees are cut.
	Share *SharedIncumbent
}

// Solve is the unified entry point of the optimizer: it runs the selected
// algorithm under ctx, which replaces the legacy wall-clock polling —
// cancel the context (or let Options.TimeLimit expire) and Solve promptly
// returns the best solution found so far with Stats.Interrupted set.
//
// All state-tree algorithms share one incumbent upper bound, so with
// Workers > 1 pruning tightens globally as any worker improves the best.
// Results are deterministic for Workers == 1; for Workers > 1 the returned
// leakage matches the sequential result within LeakEps on exhaustive
// searches (the explored set, not the optimum, depends on scheduling only
// when a time or leaf budget truncates the search).
// Solve can return both a non-nil Solution and a non-nil error: when every
// worker of a tree search dies (see ErrWorkerPanic), the incumbent found up
// to that point is still handed back alongside the joined failure.  Callers
// that only check the error keep their existing behavior; callers that want
// the partial result can take it.
func (p *Problem) Solve(ctx context.Context, opt Options) (*Solution, error) {
	return p.SolveWith(ctx, opt, nil)
}

// Drain explores the subtree tasks of a tree search: the one part of the
// search lifecycle that differs between a local Solve, whose in-process
// worker pool drains them, and a cluster run, whose coordinator leases them
// to shards.  SolveWith runs the rest of the lifecycle around it.
type Drain interface {
	// Parallelism is how many tasks the drain explores at once; a fresh
	// frontier is split into about four tasks per worker.
	Parallelism() int
	// Load hands the drain the running search and its frontier.  It must
	// not block: from its return on, Open may be called from another
	// goroutine.
	Load(s *Search, tasks [][]sim.Value) error
	// Explore explores the loaded tasks until they are exhausted or the
	// search is interrupted; ctx ending must interrupt it.  An error
	// wrapping ErrWorkerPanic keeps the incumbent; any other aborts the
	// search.
	Explore(ctx context.Context) error
	// Open lists the tasks not yet fully explored, in-flight ones
	// included: the frontier a snapshot records.
	Open() [][]sim.Value
}

// SolveWith is Solve with the tree search's subtree tasks explored by
// drain; a nil drain is Solve's in-process worker pool.  Everything else
// is the one lifecycle every tree search follows, local or distributed:
// options validation, resume or seed, frontier expansion, the time limit
// net of prior runtime, the checkpoint and progress tickers, the final
// snapshot (or its removal), refinement and the returned stats.  A
// caller's drain takes the tasks out of this process, so its frontier is
// split at least as finely as a checkpointed one.  The one-pass
// algorithms ignore drain.
func (p *Problem) SolveWith(ctx context.Context, opt Options, drain Drain) (*Solution, error) {
	start := time.Now()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.Algorithm == AlgExact && len(p.CC.PI) > MaxExactInputs {
		return nil, fmt.Errorf("core: exact search limited to %d inputs, circuit has %d",
			MaxExactInputs, len(p.CC.PI))
	}
	// Load any resume snapshot before arming the time limit: the remaining
	// budget must account for the wall clock the crashed run already spent.
	var rs *resumedSearch
	if opt.Checkpoint.Resume {
		var err error
		rs, err = p.loadSearch(opt.Checkpoint.fs(), opt.Checkpoint.Path, opt)
		if err != nil {
			return nil, err
		}
	}
	var prior time.Duration
	if rs != nil {
		prior = rs.Elapsed
	}
	if opt.TimeLimit > 0 {
		// A non-positive remainder yields an already-expired context, so a
		// resume whose budget is spent returns the incumbent immediately.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeLimit-prior)
		defer cancel()
	}

	var (
		sol *Solution
		err error
	)
	switch opt.Algorithm {
	case AlgHeuristic1:
		sol, err = p.heuristic1(p.Budget(opt.Penalty))
	case AlgStateOnly:
		sol, err = p.stateOnly()
	case AlgHeuristic2, AlgExact:
		sol, err = p.treeSearch(ctx, opt, start, rs, drain)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", opt.Algorithm)
	}
	if err != nil {
		if sol == nil {
			return nil, err
		}
		// Degraded completion (all workers died): skip refinement, stamp
		// what we have, and hand the incumbent back with the error.
		sol.Stats.Runtime = prior + time.Since(start)
		sol.Stats.Resumed = rs != nil
		sol.Stats.PriorRuntime = prior
		emitFinalProgress(opt, sol)
		return sol, err
	}
	if opt.RefinePasses > 0 {
		sol, err = p.Refine(sol, opt.Penalty, opt.RefinePasses)
		if err != nil {
			return nil, err
		}
	}
	// Stats are assigned exactly once, here: the seed implementation's
	// mid-search snapshots could leave Solution.Stats disagreeing with the
	// final counters.
	sol.Stats.Runtime = prior + time.Since(start)
	sol.Stats.Resumed = rs != nil
	sol.Stats.PriorRuntime = prior
	emitFinalProgress(opt, sol)
	return sol, nil
}

// emitFinalProgress delivers the documented "one final snapshot on return":
// it fires after refinement, for every algorithm — tree searches only
// report periodic snapshots themselves, so BestLeak can never disagree with
// the returned solution (the seed implementation emitted the tree-search
// final snapshot before RefinePasses ran, and skipped it entirely on an
// already-cancelled context).
func emitFinalProgress(opt Options, sol *Solution) {
	if opt.Progress == nil {
		return
	}
	opt.Progress(Progress{Counters: sol.Stats.Counters, BestLeak: sol.Leak, Elapsed: sol.Stats.Runtime})
}

// treeSearch runs the bounded state-tree search (Heuristic 2 or Exact):
// Heuristic 1 seeds the shared incumbent (or, on resume, the snapshot's
// incumbent re-seeds it), the state tree is expanded to the split depth (or
// the snapshot's frontier is reloaded), and the drain explores the subtree
// tasks while the tickers report progress and snapshot the drain's open
// tasks.
func (p *Problem) treeSearch(ctx context.Context, opt Options, start time.Time, rs *resumedSearch, d Drain) (*Solution, error) {
	budget := p.Budget(opt.Penalty)
	var seed *Solution
	if rs != nil {
		seed = rs.Seed
	} else {
		var err error
		if seed, err = p.heuristic1(budget); err != nil {
			return nil, err
		}
	}

	sh := newSearch(p, opt, budget, seed)
	sh.start = start
	sh.handOff = d != nil || opt.Checkpoint.Path != ""
	if opt.Checkpoint.Path != "" {
		sh.ck = opt.Checkpoint
		sh.fprint = p.fingerprint(opt)
	}
	if d == nil {
		d = &poolDrain{workers: opt.Workers}
	}
	var tasks [][]sim.Value
	if rs != nil {
		// Continue, don't reset: counters, budgets and recorded failures
		// all carry over from the crashed run.
		sh.priorElapsed = rs.Elapsed
		sh.leafTickets.Store(rs.LeavesUsed)
		sh.counters.Add(rs.Stats)
		sh.failures = rs.Failures
		sh.splitDepth = rs.SplitDepth
		tasks = rs.Tasks
		if sh.maxLeaves > 0 && rs.LeavesUsed >= sh.maxLeaves {
			// The leaf budget was exhausted before the crash.
			sh.Interrupt()
		}
	}
	if ctx.Err() != nil {
		// Already canceled: the incumbent is the answer (the legacy
		// Heuristic2 behaved this way for a zero time budget).  Any
		// existing snapshot file is left in place, still resumable.
		sh.Interrupt()
		return sh.finish(), nil
	}
	if rs == nil {
		depth := opt.SplitDepth
		if depth <= 0 {
			depth = splitDepth(d.Parallelism(), len(p.piOrder), sh.handOff)
		}
		var err error
		if tasks, err = sh.frontier(depth); err != nil {
			return nil, err
		}
	}
	if err := d.Load(sh, tasks); err != nil {
		return nil, err
	}

	// The tickers run for the duration of the drain; the final write (or
	// removal) below happens only after they have stopped, so two writers
	// never race on the snapshot file.
	stopTickers := sh.startTickers(opt, d)
	var err error
	if len(tasks) > 0 && !sh.stop.Load() {
		err = d.Explore(ctx)
	}
	stopTickers()
	if err != nil && !errors.Is(err, ErrWorkerPanic) {
		return nil, err
	}
	if sh.ck.Path != "" {
		if sh.interrupted.Load() {
			// Interrupted (cancellation, budget, or total worker loss):
			// persist the final frontier so a resume continues from here.
			sh.writeCheckpoint(d)
		} else if rerr := checkpoint.Remove(sh.ck.fs(), sh.ck.Path); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			// Ran to completion: the snapshot would only invite a bogus
			// resume, so remove it.  Failure to remove is as non-fatal as
			// any other checkpoint I/O error.
			sh.ckErrors.Add(1)
		}
	}
	// Every worker dying still leaves the incumbent a valid (often useful)
	// solution: it degrades alongside the error instead of being discarded.
	return sh.finish(), err
}

// startTickers runs the progress and checkpoint tickers in one goroutine
// and returns the function that stops them and waits for it.
func (sh *Search) startTickers(opt Options, d Drain) (stop func()) {
	var tickers []*time.Ticker
	tick := func(interval time.Duration) <-chan time.Time {
		t := time.NewTicker(interval)
		tickers = append(tickers, t)
		return t.C
	}
	var progress, ck <-chan time.Time
	if opt.Progress != nil {
		interval := opt.ProgressInterval
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		progress = tick(interval)
	}
	if sh.ck.Path != "" {
		ck = tick(sh.ck.Interval)
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-progress:
				opt.Progress(sh.snapshot())
			case <-ck:
				sh.writeCheckpoint(d)
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		for _, t := range tickers {
			t.Stop()
		}
	}
}
