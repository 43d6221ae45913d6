package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
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

	// handOff reports that an interrupted drain hands its unexplored
	// frontier on — to a checkpoint snapshot, to a caller's drain, or as
	// SolveTasks' Remaining — so whoever takes a stopped task next
	// re-explores and re-counts it.
	handOff bool

	// counters are the exactly-once totals: workers add their deltas at
	// leaf granularity and withdraw them when a task rolls back.
	counters checkpoint.AtomicStats

	// relax is the choice-elimination bound engine of the cascade (nil when
	// ablated or when it cannot improve on the cheap bound at this budget).
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
// budget is set.
func (sh *Search) takeLeafTicket() bool {
	n := sh.leafTickets.Add(1)
	if sh.maxLeaves > 0 && n > sh.maxLeaves {
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
	pi []sim.Value
	// inc is the incremental bound engine (nil when bounds are ablated).
	inc *sim.Inc3
	// rx is the relaxation half of the bound cascade: a second incremental
	// engine over the choice-elimination tables, probed only on
	// branches the cheap bound could not cut.  Nil when sh.relax is nil.
	rx      *sim.Inc3
	stats   Counters
	flushed Counters
	// taskMark snapshots stats at the start of the current pool task, so a
	// requeued task's partial deltas can be withdrawn (see rollbackTask).
	taskMark Counters
	base     *sta.State // all-fast reference timing
	scratch  *sta.State // per-leaf working state
	arena    *leafArena // reusable leaf-evaluation buffers
}

// newWorker builds a worker around base, the drain's all-fast timing
// state, which every worker clones (an O(nets) copy) instead of paying a
// full analysis of its own.
func (sh *Search) newWorker(base *sta.State) (*worker, error) {
	inc, err := sh.p.newBoundEngine()
	if err != nil {
		return nil, err
	}
	var rx *sim.Inc3
	if sh.relax != nil {
		rx, err = sim.NewInc3(sh.p.CC, sh.relax.Known, sh.relax.Unknown)
		if err != nil {
			return nil, err
		}
	}
	w := &worker{
		sh:      sh,
		pi:      make([]sim.Value, len(sh.p.CC.PI)),
		inc:     inc,
		rx:      rx,
		base:    base,
		scratch: base.Clone(),
		arena:   sh.p.newLeafArena(base),
	}
	for i := range w.pi {
		w.pi[i] = sim.X
	}
	return w, nil
}

// enterPrefix syncs the bound engines to a task's partial assignment (w.pi
// must already hold it) and returns the number of Assigns to undo when the
// subtree is done.
func (w *worker) enterPrefix() int {
	n := 0
	for i, v := range w.pi {
		if v != sim.X {
			if w.inc != nil {
				w.inc.Assign(i, v)
			}
			if w.rx != nil {
				w.rx.Assign(i, v)
			}
			n++
		}
	}
	return n
}

// leavePrefix unwinds enterPrefix's assignments.
func (w *worker) leavePrefix(n int) {
	for ; n > 0; n-- {
		if w.inc != nil {
			w.inc.Undo()
		}
		if w.rx != nil {
			w.rx.Undo()
		}
	}
}

// flush publishes the worker's counter deltas to the shared totals.
func (w *worker) flush() {
	w.sh.counters.Add(w.stats.Sub(w.flushed))
	w.flushed = w.stats
}

// markTask records the start of a pool task: any tail deltas of the previous
// task are published first (they belong to completed work), then the mark is
// taken so rollbackTask can withdraw exactly this task's contribution.
func (w *worker) markTask() {
	w.flush()
	w.taskMark = w.stats
}

// rollbackTask withdraws the current task's published counter deltas from
// the shared totals.  It runs when the task returns to the pool unfinished
// and someone will re-run it — survivors after a worker death, or the
// resume or coordinator a stopped drain hands its frontier to — because
// the requeued task will be re-explored from scratch by whoever next takes
// it, and counting the partial exploration would double-count it:
// checkpointed totals would re-add the same nodes and leaves after every
// kill/resume cycle, breaking the monotone-provenance contract of
// leakopt -stats and the daemon's result documents.  Leaf-budget tickets are
// deliberately not returned: MaxLeaves is a work budget and the evaluation
// work behind the rolled-back leaves was genuinely spent.
func (w *worker) rollbackTask() {
	w.sh.counters.Add(w.taskMark.Sub(w.flushed))
	w.stats = w.taskMark
	w.flushed = w.taskMark
}

// dfs is the bound-guided state-tree descent: at each level probeBranches
// bounds both branches on the incremental engine and orders them tighter
// branch first, and branches the incumbent already beats are pruned.  The
// hot path allocates nothing.
//
// Branches that survive the cheap bound pay the second stage of the bound
// cascade: one incremental probe of the choice-elimination engine (w.rx),
// whose per-gate contributions fold the delay budget into the bound.  The probe's
// Assign persists into the subtree descent, so deeper cascade probes touch
// only the newly-assigned input's fanout cone — the relaxation costs one
// Assign/Bound/Undo per surviving branch, nothing on branches the cheap
// bound already cut.
//
// On an error return the engines may hold unpaired Assigns; errors abort
// the whole search, so no caller reuses the worker afterwards.
func (w *worker) dfs(depth int) error {
	sh := w.sh
	if sh.stop.Load() {
		return nil
	}
	p := sh.p
	if depth == len(p.piOrder) {
		return w.leaf()
	}
	idx := p.piOrder[depth]
	w.stats.StateNodes++
	for _, br := range probeBranches(w.inc, idx) {
		if br.bound >= sh.bestObj()-LeakEps {
			w.stats.Pruned++
			continue
		}
		if w.rx != nil {
			w.rx.Assign(idx, br.v)
			w.stats.RelaxBounds++
			if w.rx.Bound() >= sh.bestObj()-LeakEps {
				w.stats.Pruned++
				w.stats.RelaxPruned++
				w.rx.Undo()
				continue
			}
		}
		w.pi[idx] = br.v
		if w.inc != nil {
			w.inc.Assign(idx, br.v)
		}
		err := w.dfs(depth + 1)
		if err != nil {
			return err
		}
		if w.inc != nil {
			w.inc.Undo()
		}
		if w.rx != nil {
			w.rx.Undo()
		}
	}
	w.pi[idx] = sim.X
	return nil
}

// leaf evaluates one complete input state, either with the greedy gate-tree
// descent (Heuristic 2) or the exact gate-tree branch-and-bound.  The state
// vector lives in the worker's arena, so the leaf paths allocate nothing
// after warm-up (incumbent installs are the only allocation site, amortized
// over the search).
func (w *worker) leaf() error {
	if fault := w.sh.p.leafFault; fault != nil {
		switch err := fault(); {
		case errors.Is(err, context.Canceled):
			w.sh.Interrupt()
			return nil
		case err != nil:
			return err
		}
	}
	if !w.sh.takeLeafTicket() {
		return nil
	}
	state := w.arena.state
	for i, v := range w.pi {
		state[i] = v == sim.True
	}
	var err error
	if w.sh.alg == AlgExact {
		err = w.exactLeaf(state)
	} else {
		err = w.greedyLeaf(state)
	}
	w.flush()
	return err
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
	leak, isub, delay, err := p.evalStateArena(w.scratch, a, sh.budget, &w.stats)
	if err != nil {
		return err
	}
	sh.inc.OfferLeaf(state, a.choices, leak, isub, delay)
	return nil
}

// exactLeaf runs the exact gate-tree branch-and-bound for one state: gates
// in gain order, remaining-gates leakage suffix bounds, and the incremental
// delay lower bound (unassigned gates at their fastest version).
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
		return nil
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
	for _, ci := range p.rankTab[gi][s] {
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

// taskPool is the work-distribution structure of the pool engine: a FIFO of
// pending subtree tasks plus the set of tasks currently held by workers.
// Unlike the channel feeder it replaces, the pool always knows the exact
// unexplored frontier — pending plus in-flight — which is what checkpoints
// persist and what a dead worker's task returns to.
type taskPool struct {
	mu      sync.Mutex
	pending [][]sim.Value
	next    int
	active  map[int][]sim.Value
}

func newTaskPool(tasks [][]sim.Value) *taskPool {
	return &taskPool{pending: tasks, active: make(map[int][]sim.Value)}
}

// take hands worker id the next pending task.
func (tp *taskPool) take(id int) ([]sim.Value, bool) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if tp.next >= len(tp.pending) {
		return nil, false
	}
	t := tp.pending[tp.next]
	tp.next++
	tp.active[id] = t
	return t, true
}

// done marks worker id's task fully explored.
func (tp *taskPool) done(id int) {
	tp.mu.Lock()
	delete(tp.active, id)
	tp.mu.Unlock()
}

// requeue returns worker id's in-flight task to the front of the queue —
// used when a worker dies (survivors redistribute its subtree) or when the
// search stops mid-task (the task stays in the checkpointed frontier).
// Re-running a partially-explored task is safe: the incumbent only ever
// tightens, so re-visited leaves re-derive or improve it, never regress it.
func (tp *taskPool) requeue(id int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	t, ok := tp.active[id]
	if !ok {
		return
	}
	delete(tp.active, id)
	tp.pending = append(tp.pending, nil)
	copy(tp.pending[tp.next+1:], tp.pending[tp.next:])
	tp.pending[tp.next] = t
}

// remaining returns the unexplored frontier: in-flight tasks first (in
// worker order, for determinism), then the untaken tail of the queue.
func (tp *taskPool) remaining() [][]sim.Value {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	ids := make([]int, 0, len(tp.active))
	for id := range tp.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([][]sim.Value, 0, len(ids)+len(tp.pending)-tp.next)
	for _, id := range ids {
		out = append(out, tp.active[id])
	}
	out = append(out, tp.pending[tp.next:]...)
	return out
}

// runTask explores one subtree task (already copied into w.pi) under panic
// isolation: a panic anywhere in the descent surfaces as a *panicError
// instead of tearing down the process.
func (sh *Search) runTask(w *worker) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r, stack: debug.Stack()}
		}
	}()
	n := w.enterPrefix()
	if err := w.dfs(sh.splitDepth); err != nil {
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
	d.sh, d.tp = sh, newTaskPool(tasks)
	return nil
}

func (d *poolDrain) Open() [][]sim.Value { return d.tp.remaining() }

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
	for i, w := range ws {
		wg.Add(1)
		go func(id int, w *worker) {
			defer wg.Done()
			defer w.flush()
			for {
				if sh.stop.Load() {
					return
				}
				task, ok := tp.take(id)
				if !ok {
					return
				}
				copy(w.pi, task)
				w.markTask()
				if err := sh.runTask(w); err != nil {
					sh.recordFailure(id, err)
					// Survivors (or a resume) re-run the task from
					// scratch, so its partial counters must not stay in
					// the totals.
					w.rollbackTask()
					tp.requeue(id)
					dead.Add(1)
					return
				}
				if sh.stop.Load() {
					// Stopped mid-task: the subtree may be partially
					// explored, so it stays in the frontier.  A handed-on
					// frontier is re-counted by whoever resumes it, so the
					// partial counters are withdrawn; otherwise the
					// partial work is this run's final work and stays
					// counted.
					if sh.handOff {
						w.rollbackTask()
					}
					tp.requeue(id)
					return
				}
				tp.done(id)
			}
		}(i, w)
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
// ckSplitDepth deep: finer tasks bound the work re-run after a crash or a
// shard death, and give work stealing something to take.
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
// bound-guided ordering and pruning the worker DFS would, then shuffles
// the tasks when seed is non-zero.  Subtrees are collected in depth-first
// preorder (the bound-preferred branch first), so better-bounded tasks
// still reach the queue earlier; the incumbent cannot tighten during
// expansion (no leaf is evaluated here), so the surviving task set is
// exactly the breadth-first one, and the expansion is never cut short.
func (sh *Search) frontier(depth int, seed int64) ([][]sim.Value, error) {
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
	eng, err := p.newBoundEngine()
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
			if eng != nil {
				eng.Assign(idx, br.v)
			}
			expand(d + 1)
			if eng != nil {
				eng.Undo()
			}
			cur[idx] = sim.X
		}
	}
	expand(0)
	sh.counters.Add(stats)
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	}
	return tasks, nil
}
