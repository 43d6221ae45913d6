package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"svto/internal/library"
	"svto/internal/sim"
)

// This file is the search engine's distribution surface: the hooks a
// cluster coordinator and its worker shards use to run one tree search
// across processes.  The unit of distribution is the same 3-valued subtree
// task vector the checkpoint format persists — a coordinator runs the
// search through SolveWith with its lease table as the Drain, hands task
// batches to shards, and each shard drains its batch with the ordinary
// pool engine (SolveTasks).
// Every search's incumbent is a SharedIncumbent, which a network pump can
// also publish into and subscribe from; monotonicity makes late, duplicate
// or crossing broadcasts harmless.

// SharedIncumbent is the incumbent cell of a tree search: a monotone
// best-solution cell that every worker of the search, and any searches
// coupled to it through Options.Share (and, through a network pump,
// searches in other processes), offer into.  Offers install strictly better
// solutions only — objective first, total leakage as the tie-break — so
// replayed or out-of-order broadcasts cannot regress it.  The objective of
// the incumbent is also kept as float64 bits, so the pruning test reads it
// in one atomic load.  Subscribers are notified outside the lock on every
// installation, except the subscriber the offer originated from (which
// already knows), breaking notification cycles.
type SharedIncumbent struct {
	p *Problem
	// bits holds math.Float64bits of the incumbent's objective value (total
	// leakage for ObjTotal, subthreshold leakage for ObjIsubOnly), +Inf
	// while the cell is empty.  It is lowered before the solution swap, so
	// other workers prune against a new bound immediately.
	bits   atomic.Uint64
	mu     sync.Mutex
	best   *Solution
	epoch  int64
	nextID int
	subs   map[int]func(*Solution)
}

// NewSharedIncumbent creates an empty incumbent cell for p's objective.
func NewSharedIncumbent(p *Problem) *SharedIncumbent {
	s := &SharedIncumbent{p: p, subs: make(map[int]func(*Solution))}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Subscribe registers fn to run on every installation (from any goroutine,
// outside the incumbent's lock) and returns the subscriber id to pass to
// OfferFrom and Unsubscribe.  fn must be safe for concurrent calls.
func (s *SharedIncumbent) Subscribe(fn func(*Solution)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	s.subs[id] = fn
	return id
}

// Unsubscribe removes a subscriber.
func (s *SharedIncumbent) Unsubscribe(id int) {
	s.mu.Lock()
	delete(s.subs, id)
	s.mu.Unlock()
}

// Obj returns the incumbent's objective value without locking (+Inf before
// the first offer).
func (s *SharedIncumbent) Obj() float64 { return math.Float64frombits(s.bits.Load()) }

// Best returns the current incumbent (nil before the first offer).  The
// returned Solution is shared: callers must not mutate it.
func (s *SharedIncumbent) Best() *Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best
}

// BestEpoch returns the incumbent plus its epoch — a counter bumped on
// every installation, so a poller can cheaply detect "nothing new".
func (s *SharedIncumbent) BestEpoch() (*Solution, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.best, s.epoch
}

// Offer installs sol if it strictly improves the incumbent (objective
// first, total leakage as the tie-break) and reports whether it did.
func (s *SharedIncumbent) Offer(sol *Solution) bool { return s.OfferFrom(-1, sol) }

// OfferFrom is Offer with an originating subscriber id: on installation
// every subscriber except origin is notified.  Pass an id no subscriber
// holds (e.g. -1) to notify everyone.
func (s *SharedIncumbent) OfferFrom(origin int, sol *Solution) bool {
	if sol == nil {
		return false
	}
	obj := s.p.objValue(sol)
	if !s.lower(obj) {
		return false
	}
	s.mu.Lock()
	if !s.improves(obj, sol.Leak) {
		s.mu.Unlock()
		return false
	}
	s.install(origin, sol)
	return true
}

// OfferLeaf is Offer for the allocation-free leaf paths: the caller hands
// in reused state and choices buffers plus the computed values, and a
// Solution (with its own copies of the buffers) is only materialized if
// the incumbent actually moves — losing leaves allocate nothing.  Returns
// the installed solution, or nil when the incumbent was not replaced.
func (s *SharedIncumbent) OfferLeaf(state []bool, choices []*library.Choice, leak, isub, delay float64) *Solution {
	obj := leak
	if s.p.Obj == ObjIsubOnly {
		obj = isub
	}
	if !s.lower(obj) {
		return nil
	}
	s.mu.Lock()
	if !s.improves(obj, leak) {
		s.mu.Unlock()
		return nil
	}
	sol := &Solution{
		State:   append([]bool(nil), state...),
		Choices: append([]*library.Choice(nil), choices...),
		Leak:    leak,
		Isub:    isub,
		Delay:   delay,
	}
	s.install(-1, sol)
	return sol
}

// lower is the lock-free half of an offer: it publishes obj as the new
// pruning bound when it beats the current one, and reports whether the
// offer may still install — strictly better, or an objective tie the leak
// tie-break resolves under the lock.
func (s *SharedIncumbent) lower(obj float64) bool {
	for {
		cur := s.bits.Load()
		curObj := math.Float64frombits(cur)
		if obj > curObj {
			return false
		}
		if obj == curObj || s.bits.CompareAndSwap(cur, math.Float64bits(obj)) {
			return true
		}
	}
}

// improves reports whether (obj, leak) is strictly better than the current
// best under the objective-then-leak order; callers hold s.mu.  Strictness
// is what terminates broadcast echo: a solution round-tripped through
// another process compares equal and is dropped.
func (s *SharedIncumbent) improves(obj, leak float64) bool {
	if s.best == nil {
		return true
	}
	cur := s.p.objValue(s.best)
	return obj < cur || (obj == cur && leak < s.best.Leak)
}

// install swaps sol in, releases s.mu (held by the caller) and notifies
// the subscribers other than origin.  Notification happens outside the
// lock: a callback taking another search's locks under ours would order
// locks inconsistently across searches.
func (s *SharedIncumbent) install(origin int, sol *Solution) {
	s.best = sol
	s.epoch++
	fns := make([]func(*Solution), 0, len(s.subs))
	for id, fn := range s.subs {
		if id != origin {
			fns = append(fns, fn)
		}
	}
	s.mu.Unlock()
	for _, fn := range fns {
		fn(sol)
	}
}

// SeedSolution runs the Heuristic 1 descent that seeds every tree search:
// the incumbent a fresh Solve or SolveWith starts from.
func (p *Problem) SeedSolution(penalty float64) (*Solution, error) {
	return p.heuristic1(p.Budget(penalty))
}

// SearchFingerprint exposes the checkpoint fingerprint of a (problem,
// options) pair: everything defining the search space and objective, with
// execution knobs excluded.  A coordinator and its shards must agree on it
// before exchanging tasks, and snapshots resume across local and
// distributed runs interchangeably because both use this same hash.
func (p *Problem) SearchFingerprint(opt Options) uint64 { return p.fingerprint(opt) }

// DefaultSplitDepth is the frontier depth SolveWith picks for a fresh
// search whose tasks are handed on — checkpointed, or drained by a
// caller's Drain such as a cluster coordinator — when the drain explores
// parallelism tasks at once.
func DefaultSplitDepth(parallelism, inputs int) int { return splitDepth(parallelism, inputs, true) }

// ExpandFrontier expands the state tree to depth under seed's bound and
// returns the surviving subtree tasks plus the counters the expansion
// spent (state nodes, pruned branches).  The task set, and its order, are
// exactly the ones a local pool run at the same split depth would build —
// the expansion evaluates no leaves, so the incumbent cannot move during
// it.
func (p *Problem) ExpandFrontier(opt Options, seed *Solution, depth int) ([][]sim.Value, SearchStats, error) {
	if seed == nil {
		return nil, SearchStats{}, fmt.Errorf("%w: ExpandFrontier requires a seed incumbent", ErrInvalidOptions)
	}
	// A zero-stats copy keeps the returned counters a pure delta: the
	// caller owns the seed's own counters and merges them once.  The
	// expansion prunes against seed alone, never against opt.Share.
	zero := *seed
	zero.Stats = SearchStats{}
	opt.Share = nil
	sh := newSearch(p, opt, p.Budget(opt.Penalty), &zero)
	tasks, err := sh.frontier(depth)
	if err != nil {
		return nil, SearchStats{}, err
	}
	return tasks, SearchStats{Counters: sh.counters.Load()}, nil
}

// TaskResult is the outcome of one SolveTasks batch.
type TaskResult struct {
	// Best is the best solution found (the seed if nothing improved); its
	// Stats cover exactly the work this batch explored, the explored part
	// of a stopped task included.
	Best *Solution
	// Remaining is the tasks left unexplored — empty on a clean drain.  A
	// stopped task leaves its unexplored remainder: tasks that extend it
	// (see remainder); a dead worker's task comes back whole, its partial
	// counters withdrawn.
	Remaining [][]sim.Value
	// LeavesUsed counts the leaf-budget tickets the batch consumed.  It
	// differs from Best.Stats.Leaves where a leaf's work was spent but not
	// kept: a dead worker's withdrawn leaves, and an exact gate-tree descent
	// a stop cut midway, whose leaf is handed on whole.  Budgets are charged
	// with it, so such a batch still spends budget.
	LeavesUsed int64
}

// SolveTasks drains an explicit subtree task set with the pool engine: the
// shard half of a distributed run.  seed is the starting incumbent (pass a
// zero-Stats copy — the result's Stats then cover exactly this call's
// work, and Remaining exactly the work it left); opt.SplitDepth must be the
// depth the search's frontier was expanded at, and every task a prefix at
// least that deep.  An error comes only from infrastructure failures — like
// Solve, an all-workers-died run returns the incumbent alongside
// ErrWorkerPanic.
//
// Checkpointing is rejected: in a distributed run the coordinator owns the
// snapshot, and a shard's unfinished tasks are its Remaining return.
func (p *Problem) SolveTasks(ctx context.Context, opt Options, seed *Solution, tasks [][]sim.Value) (*TaskResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Algorithm != AlgHeuristic2 && opt.Algorithm != AlgExact {
		return nil, fmt.Errorf("%w: SolveTasks requires a tree search (heuristic2 or exact)", ErrInvalidOptions)
	}
	if opt.Checkpoint.Path != "" || opt.Checkpoint.Resume {
		return nil, fmt.Errorf("%w: SolveTasks does not checkpoint (the coordinator owns the snapshot)", ErrInvalidOptions)
	}
	if seed == nil {
		return nil, fmt.Errorf("%w: SolveTasks requires a seed incumbent", ErrInvalidOptions)
	}
	if opt.SplitDepth < 0 || opt.SplitDepth > len(p.piOrder) {
		return nil, fmt.Errorf("%w: split depth %d out of range (%d inputs)", ErrInvalidOptions, opt.SplitDepth, len(p.piOrder))
	}
	for ti, t := range tasks {
		if err := p.checkTask(t, opt.SplitDepth); err != nil {
			return nil, fmt.Errorf("%w: task %d: %v", ErrInvalidOptions, ti, err)
		}
	}
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}

	sh := newSearch(p, opt, p.Budget(opt.Penalty), seed)
	sh.splitDepth = opt.SplitDepth
	// Shards drain with the same pool (and bound cascade) a local Solve
	// uses, so a 1-shard cluster run explores and prunes bit-identically to
	// the local search.
	pool := &poolDrain{workers: opt.Workers}
	pool.Load(sh, tasks)
	searchErr := pool.Explore(ctx)
	if searchErr != nil && !errors.Is(searchErr, ErrWorkerPanic) {
		return nil, searchErr
	}
	return &TaskResult{
		Best:       sh.finish(),
		Remaining:  pool.Open(func() {}),
		LeavesUsed: sh.leafTickets.Load(),
	}, searchErr
}
