package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/relax"
	"svto/internal/sim"
	"svto/internal/sta"
)

// Search is one running tree search: the state shared by every worker that
// explores it, local or remote — the incumbent cell (read lock-free on the
// hot pruning path, tightened globally whenever any worker improves it),
// the stop flag, the optional leaf budget, the exactly-once counters behind
// Progress snapshots and checkpoints, and the recorded worker failures.
// SolveWith owns it; a Drain reaches it through the exported methods.
type Search struct {
	p      *Problem
	alg    Algorithm
	budget float64

	// inc is the incumbent: Options.Share when the search is coupled to an
	// external cell (cluster mode), a private cell otherwise.
	inc *SharedIncumbent

	stop        atomic.Bool
	interrupted atomic.Bool

	maxLeaves   int64
	leafTickets atomic.Int64

	splitDepth int

	// counters are the exactly-once totals of the work explored: workers
	// add their deltas at leaf granularity, and withdraw them only when a
	// crashed task returns to the pool whole.  A stopped task keeps its
	// counters and hands on exactly its unexplored remainder.
	counters checkpoint.AtomicStats

	// relax is the choice-elimination bound engine of the cascade (nil when
	// it cannot improve on the cheap bound at this budget).
	// Immutable once set, shared read-only by every worker.
	relax *relax.Engine

	// failMu guards the worker-death record: failures feeds
	// SearchStats.WorkerFailures (and snapshots), deadErrs the joined
	// all-workers-died error.
	failMu   sync.Mutex
	failures []WorkerFailure
	deadErrs []error

	// Lifecycle state: the wall clock of this run and of the runs it
	// resumed, and the checkpoint settings and tallies (zero when
	// Options.Checkpoint is unset).
	start        time.Time
	priorElapsed time.Duration
	ck           CheckpointOptions
	fprint       uint64
	ckWrites     atomic.Int64
	ckErrors     atomic.Int64
}

// newSearch seeds the incumbent with seed — Heuristic 1's solution (the
// paper's "good bound during the first downward traversal") or a resumed
// incumbent — and folds its counters into the shared totals.  The seed
// descent is free: its leaf does not count against the MaxLeaves budget, so
// MaxLeaves == n explores up to n tree leaves beyond the seed.  With
// Options.Share set the search uses that cell directly, so external
// improvements tighten its pruning bound and its own publish outward.
func newSearch(p *Problem, opt Options, budget float64, seed *Solution) *Search {
	inc := opt.Share
	if inc == nil {
		inc = NewSharedIncumbent(p)
	}
	sh := &Search{
		p:         p,
		alg:       opt.Algorithm,
		budget:    budget,
		inc:       inc,
		maxLeaves: opt.MaxLeaves,
		start:     time.Now(),
	}
	inc.Offer(seed)
	sh.counters.Add(seed.Stats.Counters)
	return sh
}

// Incumbent returns the search's incumbent cell.
func (sh *Search) Incumbent() *SharedIncumbent { return sh.inc }

// SplitDepth is the depth the frontier was expanded at: every task forces
// the first SplitDepth inputs of the search order.
func (sh *Search) SplitDepth() int { return sh.splitDepth }

// Credit adds the counters of work explored outside this process (a
// shard's finished batch) to the exactly-once totals.
func (sh *Search) Credit(c Counters) { sh.counters.Add(c) }

// ChargeLeaves charges n leaf-budget tickets spent outside this process and
// returns the tickets MaxLeaves still allows: 0 with ok when the search has
// no leaf budget, ok false once it is spent.
func (sh *Search) ChargeLeaves(n int64) (left int64, ok bool) {
	used := sh.leafTickets.Add(n)
	if sh.maxLeaves <= 0 {
		return 0, true
	}
	left = sh.maxLeaves - used
	return left, left > 0
}

// RecordFailure records a failure outside this process (a dead shard, a
// returned batch) in SearchStats.WorkerFailures and in snapshots.
func (sh *Search) RecordFailure(wf WorkerFailure) {
	sh.failMu.Lock()
	sh.failures = append(sh.failures, wf)
	sh.failMu.Unlock()
}

// Interrupt stops the search: workers stop at their next poll, the result
// reports Interrupted, and a checkpointed search snapshots the drain's open
// tasks on its way out.
func (sh *Search) Interrupt() {
	sh.interrupted.Store(true)
	sh.stop.Store(true)
}

// bestObj returns the incumbent's objective value — the units every bound
// comparison and pruning decision uses.
func (sh *Search) bestObj() float64 { return sh.inc.Obj() }

// takeLeafTicket enforces the MaxLeaves work budget across workers.  The
// counter always advances (one atomic add per leaf) so checkpoints can
// record how much of the budget a crashed run had consumed even when no
// budget is set.  A refused ticket is given back: its leaf is handed on
// unevaluated, and whoever resumes it pays for it then.
func (sh *Search) takeLeafTicket() bool {
	n := sh.leafTickets.Add(1)
	if sh.maxLeaves > 0 && n > sh.maxLeaves {
		sh.leafTickets.Add(-1)
		sh.Interrupt()
		return false
	}
	return true
}

// elapsed is the search's wall clock, including the runs it resumed.
func (sh *Search) elapsed() time.Duration { return sh.priorElapsed + time.Since(sh.start) }

// snapshot reads the shared counters for a Progress callback.
func (sh *Search) snapshot() Progress {
	return Progress{
		Counters: sh.counters.Load(),
		BestLeak: sh.inc.Best().Leak,
		Elapsed:  sh.elapsed(),
	}
}

// finish packages the incumbent with the aggregated stats, as a fresh
// Solution: the cell's own may be shared with other searches.
func (sh *Search) finish() *Solution {
	sol := *sh.inc.Best()
	sol.Stats = SearchStats{
		Counters:         sh.counters.Load(),
		Runtime:          sh.elapsed(),
		Interrupted:      sh.interrupted.Load(),
		WorkerFailures:   sh.failuresCopy(),
		CheckpointWrites: sh.ckWrites.Load(),
		CheckpointErrors: sh.ckErrors.Load(),
	}
	return &sol
}

// recordFailure logs one local worker death for SearchStats, snapshots,
// and the potential all-workers-died error.
func (sh *Search) recordFailure(workerID int, err error) {
	wf := WorkerFailure{Worker: workerID, Err: err.Error()}
	var pe *panicError
	if errors.As(err, &pe) {
		wf.Stack = string(pe.stack)
	}
	sh.failMu.Lock()
	sh.failures = append(sh.failures, wf)
	sh.deadErrs = append(sh.deadErrs, err)
	sh.failMu.Unlock()
}

func (sh *Search) failuresCopy() []WorkerFailure {
	sh.failMu.Lock()
	defer sh.failMu.Unlock()
	if len(sh.failures) == 0 {
		return nil
	}
	return append([]WorkerFailure(nil), sh.failures...)
}

// allDeadError wraps every recorded death into the sentinel callers match
// on when a search lost all its workers.
func (sh *Search) allDeadError(workers int) error {
	sh.failMu.Lock()
	n := len(sh.deadErrs)
	joined := errors.Join(sh.deadErrs...)
	sh.failMu.Unlock()
	return fmt.Errorf("%w (%d of %d): %w", ErrWorkerPanic, n, workers, joined)
}

// panicError carries a recovered panic value plus the stack at the recovery
// point, so WorkerFailure entries can record where a worker died.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("worker panic: %v", e.val) }

// worker is one search goroutine: its own partial-state vector, incremental
// bound engine, incremental timing scratch and local counters (flushed to
// the shared totals at leaf granularity, keeping the hot path free of
// atomic traffic).
type worker struct {
	sh *Search
	id int
	tp *taskPool
	pi []sim.Value
	// second[d] reports that the walk is in the first branch of its depth-d
	// node, the second still to come.
	second []bool
	// from is the depth of the current task: it assigns the first from
	// inputs of the search order.
	from int
	// cut is nonzero once a stop has cut the current task short: the walk's
	// depth-cut prefix is the first subtree it did not explore.
	cut int
	// inc is the incremental bound engine.  It carries both tables of the
	// bound cascade: the cheap one, and the choice-elimination tables of
	// sh.relax when that is non-nil.
	inc     *sim.Inc3
	stats   Counters
	flushed Counters
	// taskMark snapshots stats at the start of the current pool task, so a
	// crashed task's partial deltas can be withdrawn (see rollbackTask).
	taskMark Counters
	base     *sta.State // all-fast reference timing
	scratch  *sta.State // per-leaf working state
	arena    *leafArena // reusable leaf-evaluation buffers
}

// newWorker builds a worker around base, the drain's all-fast timing
// state, which every worker clones (an O(nets) copy) instead of paying a
// full analysis of its own.
func (sh *Search) newWorker(base *sta.State) (*worker, error) {
	inc, err := sh.p.newBoundEngine(sh.relax)
	if err != nil {
		return nil, err
	}
	w := &worker{
		sh:      sh,
		pi:      make([]sim.Value, len(sh.p.CC.PI)),
		second:  make([]bool, len(sh.p.piOrder)),
		inc:     inc,
		base:    base,
		scratch: base.Clone(),
		arena:   sh.p.newLeafArena(),
	}
	for i := range w.pi {
		w.pi[i] = sim.X
	}
	return w, nil
}

// enterPrefix syncs the bound engine to a task's partial assignment (w.pi
// must already hold it) and returns the number of Assigns to undo when the
// subtree is done.
func (w *worker) enterPrefix() int {
	n := 0
	for i, v := range w.pi {
		if v != sim.X {
			w.inc.Assign(i, v)
			n++
		}
	}
	return n
}

// leavePrefix unwinds enterPrefix's assignments.
func (w *worker) leavePrefix(n int) {
	for ; n > 0; n-- {
		w.inc.Undo()
	}
}

// flush publishes the worker's counter deltas to the shared totals.
func (w *worker) flush() {
	w.sh.counters.Add(w.stats.Sub(w.flushed))
	w.flushed = w.stats
}

// rollbackTask withdraws the current task's published counter deltas from
// the shared totals.  It runs only when a worker dies mid-task: its task
// returns to the pool whole, and whoever takes it next re-explores it from
// scratch, so the partial counters must not stay counted.  Leaf-budget
// tickets are deliberately not returned: MaxLeaves is a work budget and the
// evaluation work behind the withdrawn leaves was genuinely spent.
func (w *worker) rollbackTask() {
	w.sh.counters.Add(w.taskMark.Sub(w.flushed))
	w.stats = w.taskMark
	w.flushed = w.taskMark
}

// admit makes the bound check a parent loop makes before it enters a
// branch, and counts it: branches the incumbent already beats by the cheap
// bound are pruned, and the survivors face the second stage of the bound
// cascade, the relaxation bound the same probe read from the engine's
// choice-elimination table, whose per-gate contributions fold the delay
// budget into the bound.  A bound is a pure function of the assignment, so
// the check gives the value the parent loop would have whenever it is made.
func (w *worker) admit(br branch) bool {
	sh := w.sh
	if br.bound >= sh.bestObj()-LeakEps {
		w.stats.Pruned++
		return false
	}
	if sh.relax != nil {
		w.stats.RelaxBounds++
		if br.relax >= sh.bestObj()-LeakEps {
			w.stats.Pruned++
			w.stats.RelaxPruned++
			return false
		}
	}
	return true
}

// dfs is the bound-guided state-tree descent of the depth-depth node whose
// prefix w.pi holds: probeBranches bounds both branches on the incremental
// engine and orders them by the cheap bound, tighter branch first, and each
// branch is checked and entered in turn.  The hot path allocates nothing.
//
// A stop is honoured before a branch is checked, so the walk is always cut
// between two subtrees it has either explored or not begun: w.cut then
// marks the first one not begun, and w.pi and w.second keep the path for
// the remainder (see remainder).
//
// On an error return the engine may hold unpaired Assigns; errors abort
// the worker, so it is never reused afterwards.
func (w *worker) dfs(depth int) error {
	sh := w.sh
	idx := sh.p.piOrder[depth]
	w.stats.StateNodes++
	for i, br := range probeBranches(w.inc, idx) {
		w.pi[idx] = br.v
		w.second[depth] = i == 0
		if sh.stop.Load() {
			w.cut = depth + 1
			return nil
		}
		if err := w.descend(depth, br, true); err != nil || w.cut > 0 {
			return err
		}
	}
	w.pi[idx] = sim.X
	return nil
}

// descend explores branch br of the depth-depth node, whose value w.pi
// already holds: the branch's bound check when check is set, then the leaf
// or the subtree below it.  A leaf that is not evaluated to the end goes
// back unchecked: the cut lands before its check, whose count (a passed
// check counts only RelaxBounds) is withdrawn, since whoever takes the leaf
// makes the check again.
func (w *worker) descend(depth int, br branch, check bool) error {
	if check && !w.admit(br) {
		return nil
	}
	if depth+1 == len(w.sh.p.piOrder) {
		done, err := w.leaf()
		if !done && err == nil {
			if check && w.sh.relax != nil {
				w.stats.RelaxBounds--
			}
			w.cut = depth + 1
		}
		return err
	}
	idx := w.sh.p.piOrder[depth]
	w.inc.Assign(idx, br.v)
	err := w.dfs(depth + 1)
	w.inc.Undo()
	return err
}

// errHalted reports an exact gate-tree descent a stop cut midway.
var errHalted = errors.New("core: gate-tree descent halted")

// leaf evaluates the complete input state w.pi holds, either with the
// greedy gate-tree descent (Heuristic 2) or the exact gate-tree
// branch-and-bound, and publishes the worker's position past it.  It
// reports false, keeping no counter of the leaf, when the leaf was not
// evaluated to the end: the leaf budget is spent, the search was cancelled,
// or a stop cut the exact descent midway, whose ticket stays spent
// (MaxLeaves is a work budget).  The state vector lives in the worker's
// arena, so the leaf paths allocate nothing after warm-up (incumbent
// installs are the only allocation site, amortized over the search).
func (w *worker) leaf() (bool, error) {
	if fault := w.sh.p.leafFault; fault != nil {
		switch err := fault(); {
		case errors.Is(err, context.Canceled):
			w.sh.Interrupt()
			return false, nil
		case err != nil:
			return false, err
		}
	}
	if !w.sh.takeLeafTicket() {
		return false, nil
	}
	state := w.arena.state
	for i, v := range w.pi {
		state[i] = v == sim.True
	}
	if w.sh.alg == AlgExact {
		mark := w.stats
		switch err := w.exactLeaf(state); {
		case errors.Is(err, errHalted):
			w.stats = mark
			return false, nil
		case err != nil:
			return false, err
		}
	} else if err := w.greedyLeaf(state); err != nil {
		return false, err
	}
	w.tp.publish(w)
	return true, nil
}

// greedyLeaf runs the greedy single descent of the gate tree on the reused
// scratch timing state and offers the result to the shared incumbent.
func (w *worker) greedyLeaf(state []bool) error {
	sh := w.sh
	p := sh.p
	a := w.arena
	if err := p.gateStatesInto(a, state); err != nil {
		return err
	}
	w.scratch.CopyFrom(w.base)
	leak, isub, delay := p.evalStateArena(w.scratch, a, sh.budget, sh.relax, &w.stats)
	sh.inc.OfferLeaf(state, a.choices, leak, isub, delay)
	return nil
}

// exactLeaf runs the exact gate-tree branch-and-bound for one state: gates
// in gain order, remaining-gates leakage suffix bounds, and the incremental
// delay lower bound (unassigned gates at their fastest version).  It
// returns errHalted when a stop cuts it midway.
func (w *worker) exactLeaf(state []bool) error {
	sh := w.sh
	p := sh.p
	a := w.arena
	if err := p.gateStatesInto(a, state); err != nil {
		return err
	}
	w.stats.Leaves++
	p.rankGates(a)
	for i := len(a.order) - 1; i >= 0; i-- {
		gi := a.order[i]
		a.suffix[i] = a.suffix[i+1] + p.minChoice[gi][a.gateSt[gi]]
	}

	w.scratch.CopyFrom(w.base)
	return w.gateDFS(state, 0, 0)
}

// gateDFS is the recursive step of the exact gate-tree branch-and-bound,
// operating entirely on the worker's arena and scratch timing state.
func (w *worker) gateDFS(state []bool, pos int, leakSoFar float64) error {
	sh := w.sh
	p := sh.p
	a := w.arena
	st := w.scratch
	if sh.stop.Load() {
		return errHalted
	}
	if leakSoFar+a.suffix[pos] >= sh.bestObj()-LeakEps {
		return nil
	}
	if pos == len(a.order) {
		for k, gi := range a.order {
			a.choices[gi] = a.chosen[k]
		}
		leak, isub := leakOf(a.choices)
		delay := st.Delay()
		if delay > sh.budget+DelayEps {
			return nil
		}
		sh.inc.OfferLeaf(state, a.choices, leak, isub, delay)
		return nil
	}
	gi := int(a.order[pos])
	s := a.gateSt[gi]
	choices := p.Timer.Cells[gi].Choices[s]
	prev := st.Choice(gi)
	for _, ci := range p.candidates(gi, s, sh.relax) {
		ch := &choices[ci]
		w.stats.GateTrials++
		st.SetChoice(gi, ch)
		// Delay with the remaining gates fast is a lower bound on
		// any completion: prune infeasible subtrees.
		if ch.Version.MaxFactor > 1 && st.Delay() > sh.budget+DelayEps {
			continue
		}
		a.chosen[pos] = ch
		if err := w.gateDFS(state, pos+1, leakSoFar+p.objOf(ch)); err != nil {
			return err
		}
	}
	st.SetChoice(gi, prev)
	return nil
}

// position is where a worker's depth-first walk of its task stands, as its
// pool publishes it: path is the walk's prefix, from the task's depth,
// depth the walk's, and second[d] (from ≤ d < depth) reports a second
// branch still to come at depth d.  self marks the depth-depth prefix
// itself as unexplored: a task not yet begun, or a walk a stop cut.
type position struct {
	busy        bool
	task        []sim.Value // the task as taken, re-run whole after a crash
	path        []sim.Value
	second      []bool
	from, depth int
	self        bool
}

// remainder lists the unexplored rest of a task whose walk stands at pos,
// in the order the walk would have taken it: the depth-pos.depth prefix
// when pos.self, then, deepest first, the second branch of every node on
// the path whose first branch the walk is in.  Below a task the state tree
// is binary and its branch order is a pure function of the assignment, so
// each is an ordinary task.  A task deeper than the split depth is a branch
// its parent loop has not checked yet; whoever takes it checks it first
// (runTask).
func remainder(order []int, pos *position) [][]sim.Value {
	prefix := func(depth int) []sim.Value {
		t := append([]sim.Value(nil), pos.path...)
		for _, i := range order[depth:] {
			t[i] = sim.X
		}
		return t
	}
	var out [][]sim.Value
	if pos.self {
		out = append(out, prefix(pos.depth))
	}
	for d := pos.depth - 1; d >= pos.from; d-- {
		if pos.second[d] {
			t := prefix(d + 1)
			t[order[d]] = 1 - t[order[d]] // the other of sim.False, sim.True
			out = append(out, t)
		}
	}
	return out
}

// taskPool is the work-distribution structure of the pool engine: a FIFO of
// pending subtree tasks plus where each worker stands in the task it holds.
// The pool always knows the exact unexplored frontier — pending tasks plus
// the remainder of every in-flight one — which is what checkpoints persist,
// what a stopped worker hands on, and what a dead worker's task returns to.
//
// mu orders every change of the frontier against the counters that pay for
// it: a worker publishes its position and flushes its counters together,
// under mu, at each leaf and when it takes, finishes or returns a task.
// open holds mu too, so the tasks it lists and the counters it reads are
// one consistent cut.
type taskPool struct {
	mu      sync.Mutex
	order   []int
	pending [][]sim.Value
	next    int
	at      []position
}

func newTaskPool(order []int, tasks [][]sim.Value, workers int) *taskPool {
	tp := &taskPool{order: order, pending: tasks, at: make([]position, workers)}
	for i := range tp.at {
		tp.at[i].path = make([]sim.Value, len(order))
		tp.at[i].second = make([]bool, len(order))
	}
	return tp
}

// pushFront queues ts ahead of every pending task.
func (tp *taskPool) pushFront(ts ...[]sim.Value) {
	tp.pending = append(ts, tp.pending[tp.next:]...)
	tp.next = 0
}

// take hands w the next pending task: it copies it into w.pi and publishes
// it as w's position, whole.
func (tp *taskPool) take(w *worker) bool {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.next >= len(tp.pending) {
		return false
	}
	t := tp.pending[tp.next]
	tp.next++
	copy(w.pi, t)
	w.from = 0
	for w.from < len(tp.order) && t[tp.order[w.from]] != sim.X {
		w.from++
	}
	w.cut = 0
	w.flush()
	w.taskMark = w.stats
	pos := &tp.at[w.id]
	pos.busy, pos.task = true, t
	copy(pos.path, t)
	pos.from, pos.depth, pos.self = w.from, w.from, true
	return true
}

// publish records w's position past the leaf it just evaluated, with the
// counters that paid for the walk so far.
func (tp *taskPool) publish(w *worker) {
	tp.mu.Lock()
	w.flush()
	pos := &tp.at[w.id]
	copy(pos.path, w.pi)
	copy(pos.second, w.second)
	pos.depth, pos.self = len(tp.order), false
	tp.mu.Unlock()
}

// finish ends w's task: fully explored, or, when a stop cut it, with its
// remainder queued ahead of every pending task — the order the walk would
// have taken it in.  The worker keeps every counter of what it explored.
func (tp *taskPool) finish(w *worker) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	w.flush()
	pos := &tp.at[w.id]
	pos.busy = false
	if w.cut > 0 {
		copy(pos.path, w.pi)
		copy(pos.second, w.second)
		pos.depth, pos.self = w.cut, true
		tp.pushFront(remainder(tp.order, pos)...)
	}
}

// requeue returns a dead worker's task to the front of the queue, whole,
// and withdraws its partial counters (rollbackTask): survivors or a resume
// re-run it from scratch.  Re-running a partially-explored task is safe:
// the incumbent only ever tightens, so re-visited leaves re-derive or
// improve it, never regress it.
func (tp *taskPool) requeue(w *worker) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	w.rollbackTask()
	pos := &tp.at[w.id]
	pos.busy = false
	tp.pushFront(pos.task)
}

// open returns the unexplored frontier — the remainder of every in-flight
// task first (in worker order, for determinism), then the untaken tail of
// the queue — and runs read at the same cut.
func (tp *taskPool) open(read func()) [][]sim.Value {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	read()
	var out [][]sim.Value
	for i := range tp.at {
		if tp.at[i].busy {
			out = append(out, remainder(tp.order, &tp.at[i])...)
		}
	}
	return append(out, tp.pending[tp.next:]...)
}

// runTask explores the task w.pi holds under panic isolation: a panic
// anywhere in the descent surfaces as a *panicError instead of tearing down
// the process.  A task at the split depth is the frontier expansion's,
// whose bound check the expansion made; a deeper one is a remainder, whose
// branch is checked first, exactly as its parent loop would have.
func (sh *Search) runTask(w *worker) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	if w.from == 0 {
		return w.dfs(0)
	}
	// Sync the engine to the prefix above the task's own branch, and
	// enter that branch as its parent loop does.
	last := sh.p.piOrder[w.from-1]
	v := w.pi[last]
	w.pi[last] = sim.X
	n := w.enterPrefix()
	w.pi[last] = v
	br, check := branch{v: v}, w.from > sh.splitDepth
	if check {
		brs := probeBranches(w.inc, last)
		br = brs[0]
		if br.v != v {
			br = brs[1]
		}
	}
	if err := w.descend(w.from-1, br, check); err != nil {
		return err
	}
	w.leavePrefix(n)
	return nil
}

// poolDrain is the in-process Drain: a pool of isolated workers, behind a
// local Solve (whose tasks come from the frontier expansion or a resume
// snapshot) and a cluster shard's SolveTasks.  With one worker and a
// single root task it is the plain depth-first search.  The pool is the
// load-balancing mechanism — a worker that lands on heavily-pruned subtrees
// immediately picks up the next task — and the failure-isolation boundary:
// a panicking or erroring worker records a WorkerFailure, returns its task
// to the pool and dies, while survivors keep draining.  Only when every
// worker has died does the search fail, and even then the caller still
// gets the incumbent alongside the error.
type poolDrain struct {
	workers int
	sh      *Search
	tp      *taskPool
}

func (d *poolDrain) Parallelism() int { return d.workers }

func (d *poolDrain) Load(sh *Search, tasks [][]sim.Value) error {
	d.sh, d.tp = sh, newTaskPool(sh.p.piOrder, tasks, d.workers)
	return nil
}

func (d *poolDrain) Open(read func()) [][]sim.Value { return d.tp.open(read) }

// Explore builds the bound cascade's relaxation engine (cached on the
// Problem, so repeated drains pay for it once) and the workers, then
// drains the pool.  ctx cancellation stops the drain.
func (d *poolDrain) Explore(ctx context.Context) error {
	sh, tp := d.sh, d.tp
	var err error
	if sh.relax, err = sh.p.relaxEngine(ctx, sh.budget); err != nil {
		return err
	}
	// Never spawn more workers than tasks: when the frontier pruned every
	// subtree there is nothing to do, and each idle worker would still pay
	// for a baseline clone and a bound engine.
	workers := min(d.workers, len(tp.pending))
	ws := make([]*worker, workers)
	var base *sta.State
	if workers > 0 {
		if base, err = sh.p.Timer.NewState(sh.p.Timer.FastChoices()); err != nil {
			return err
		}
	}
	for i := range ws {
		w, err := sh.newWorker(base)
		if err != nil {
			// Infrastructure failure (baseline STA / bound engine), not a
			// search fault: abort before any worker runs.
			return err
		}
		w.id, w.tp = i, tp
		ws[i] = w
	}

	// ctx cancellation becomes the lock-free stop flag the workers poll.
	// An already-done ctx stops the drain before any task is taken.
	if ctx.Err() != nil {
		sh.Interrupt()
	}
	stopWatch := context.AfterFunc(ctx, sh.Interrupt)
	defer stopWatch()

	var (
		wg   sync.WaitGroup
		dead atomic.Int32
	)
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for !sh.stop.Load() && tp.take(w) {
				if err := sh.runTask(w); err != nil {
					sh.recordFailure(w.id, err)
					tp.requeue(w)
					dead.Add(1)
					return
				}
				// A stop either cut the task, whose remainder finish
				// hands on, or came after its last subtree.
				tp.finish(w)
			}
		}(w)
	}
	wg.Wait()

	if workers > 0 && int(dead.Load()) == workers {
		sh.Interrupt()
		return sh.allDeadError(workers)
	}
	return nil
}

// splitDepth picks a fresh search's frontier depth for a drain exploring
// parallelism tasks at once: the shallowest depth giving a comfortable task
// surplus (≈4 subtrees per worker), so pruning imbalance load-balances.
// One worker has nothing to balance: depth 0 makes its single task the
// root, which it searches in the plain depth-first order.  A frontier that
// is handed on (checkpointed, or leased to shards) is split at least
// ckSplitDepth deep: finer tasks bound the work a shard death re-runs, give
// work stealing something to take, and let a snapshot resume on a cluster.
func splitDepth(parallelism, piCount int, handOff bool) int {
	d := 0
	for parallelism > 1 && (1<<d) < 4*parallelism && d < piCount && d < 12 {
		d++
	}
	if handOff {
		d = max(d, ckSplitDepth)
	}
	return min(d, piCount)
}

// frontier builds the task list of a fresh search: it expands the state
// tree to depth (clamped to the input count, and recorded as the search's
// split depth) with one incremental bound engine, applying the same
// bound-guided ordering and pruning the worker DFS would.  Subtrees are
// collected in depth-first preorder (the bound-preferred branch first), so
// better-bounded tasks reach the queue earlier; the incumbent cannot
// tighten during expansion (no leaf is evaluated here), so the surviving
// task set is exactly the breadth-first one, and the expansion is never
// cut short.
func (sh *Search) frontier(depth int) ([][]sim.Value, error) {
	p := sh.p
	depth = min(max(depth, 0), len(p.piOrder))
	sh.splitDepth = depth
	cur := make([]sim.Value, len(p.CC.PI))
	for i := range cur {
		cur[i] = sim.X
	}
	if depth == 0 {
		return [][]sim.Value{cur}, nil
	}
	eng, err := p.newBoundEngine(nil)
	if err != nil {
		return nil, err
	}
	var stats Counters
	var tasks [][]sim.Value
	var expand func(d int)
	expand = func(d int) {
		if d == depth {
			tasks = append(tasks, append([]sim.Value(nil), cur...))
			return
		}
		idx := p.piOrder[d]
		stats.StateNodes++
		for _, br := range probeBranches(eng, idx) {
			if br.bound >= sh.bestObj()-LeakEps {
				stats.Pruned++
				continue
			}
			cur[idx] = br.v
			eng.Assign(idx, br.v)
			expand(d + 1)
			eng.Undo()
			cur[idx] = sim.X
		}
	}
	expand(0)
	sh.counters.Add(stats)
	return tasks, nil
}
