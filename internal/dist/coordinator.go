package dist

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/internal/sim"
	"svto/pkg/svto"
)

// maxWireBody caps every JSON body the wire protocol reads: each request
// the coordinator (and the daemon's job API) decodes, and each reply a
// shard decodes, so a confused or malicious peer cannot exhaust memory
// with an unbounded body.
const maxWireBody = 64 << 20

// Config tunes a Coordinator.  The zero value is usable.
type Config struct {
	// LeaseTTL is how long a shard may stay silent before its leased tasks
	// are re-queued; 0 defaults to 10s.  Shards sync every few hundred
	// milliseconds while working, so the TTL only fires on real deaths.
	LeaseTTL time.Duration
	// MaxLeaseTasks caps one lease's batch size; 0 defaults to 64.
	MaxLeaseTasks int
	// Tick is the lease expiry scan's cadence; 0 defaults to 200ms.
	Tick time.Duration
	// FS overrides the jobs' snapshot I/O (fault injection in tests); nil
	// uses the real filesystem.
	FS checkpoint.FS
	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

// Coordinator owns the distributed half of a sharded search: the shard
// registry and, per running job, the lease table.  It is driven from two
// sides — Run (one call per job, blocking like svto.Run) and the HTTP
// handlers shards talk to — and is safe for concurrent use.
//
// Lock order: Coordinator.mu and run.mu are never held together; a run may
// touch its core.Search's locks (the incumbent cell, the failure record)
// while holding run.mu, never the reverse — the search's snapshot ticker
// reads the lease table through Open holding no lock of its own.
type Coordinator struct {
	cfg   Config
	nonce string // per-process run nonce, fencing restarts

	leases atomic.Int64 // lease id allocator

	// Transport-degradation counters surfaced by Health().
	dupCompletions  atomic.Int64 // duplicated /complete deliveries dropped
	lateCompletions atomic.Int64 // completions after their lease expired
	leaseExpiries   atomic.Int64 // leases re-queued by the TTL scan
	staleNonces     atomic.Int64 // requests fenced off with 409

	mu     sync.Mutex
	shards map[string]*shardInfo
	runs   map[string]*run
}

type shardInfo struct {
	workers  int
	lastSeen time.Time
	health   *ShardHealth // last snapshot reported on register/sync
}

// ShardStatus is one registered shard's health, for /v1/stats.
type ShardStatus struct {
	Name     string        `json:"name"`
	Workers  int           `json:"workers"`
	LastSeen time.Duration `json:"last_seen_ns"` // time since last contact
	Live     bool          `json:"live"`
	// Health is the shard's own transport-degradation snapshot, as last
	// reported on a register or sync request.
	Health *ShardHealth `json:"health,omitempty"`
}

// CoordinatorHealth counts the coordinator-side symptoms of a misbehaving
// network, for /v1/stats: each is benign in isolation (the protocol is
// built to absorb them) but a climbing rate is the operator's first signal
// of packet loss or a flapping shard.
type CoordinatorHealth struct {
	DuplicateCompletions int64 `json:"duplicate_completions,omitempty"`
	LateCompletions      int64 `json:"late_completions,omitempty"`
	LeaseExpiries        int64 `json:"lease_expiries,omitempty"`
	StaleNonceRequests   int64 `json:"stale_nonce_requests,omitempty"`
}

// New creates a coordinator.
func New(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxLeaseTasks <= 0 {
		cfg.MaxLeaseTasks = 64
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 200 * time.Millisecond
	}
	return &Coordinator{
		cfg:    cfg,
		nonce:  newNonce(),
		shards: make(map[string]*shardInfo),
		runs:   make(map[string]*run),
	}
}

// newNonce draws a fresh run nonce.  Cryptographic randomness is not
// required for correctness — only that two coordinator incarnations
// practically never collide — but crypto/rand is the cheapest source with
// that property.
func newNonce() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Nonce returns this coordinator incarnation's run nonce.
func (c *Coordinator) Nonce() string { return c.nonce }

// Health returns the coordinator-side degradation counters.
func (c *Coordinator) Health() CoordinatorHealth {
	return CoordinatorHealth{
		DuplicateCompletions: c.dupCompletions.Load(),
		LateCompletions:      c.lateCompletions.Load(),
		LeaseExpiries:        c.leaseExpiries.Load(),
		StaleNonceRequests:   c.staleNonces.Load(),
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// touch registers or refreshes a shard; workers < 0 keeps the recorded
// count, a nil health keeps the last reported snapshot.
func (c *Coordinator) touch(shard string, workers int, health *ShardHealth) {
	if shard == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	si := c.shards[shard]
	if si == nil {
		si = &shardInfo{}
		c.shards[shard] = si
	}
	if workers >= 0 {
		si.workers = workers
	}
	if health != nil {
		si.health = health
	}
	si.lastSeen = time.Now()
}

// Ready reports whether at least one live shard is registered, i.e.
// whether routing a job through the cluster can make progress.
func (c *Coordinator) Ready() bool { return len(c.liveShards()) > 0 }

// Shards returns every registered shard's status, most recently seen
// first.
func (c *Coordinator) Shards() []ShardStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]ShardStatus, 0, len(c.shards))
	for name, si := range c.shards {
		age := now.Sub(si.lastSeen)
		out = append(out, ShardStatus{
			Name:     name,
			Workers:  si.workers,
			LastSeen: age,
			Live:     age <= c.cfg.LeaseTTL,
			Health:   si.health,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LastSeen < out[j].LastSeen })
	return out
}

// liveShards returns the names of shards seen within the lease TTL.
func (c *Coordinator) liveShards() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	live := make(map[string]bool)
	for name, si := range c.shards {
		if now.Sub(si.lastSeen) <= c.cfg.LeaseTTL {
			live[name] = true
		}
	}
	return live
}

// parallelism sums the live shards' worker counts (at least 1), the input
// the search scales its frontier from.
func (c *Coordinator) parallelism() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	total := 0
	for _, si := range c.shards {
		if now.Sub(si.lastSeen) <= c.cfg.LeaseTTL {
			w := si.workers
			if w <= 0 {
				w = 1
			}
			total += w
		}
	}
	if total <= 0 {
		total = 1
	}
	return total
}

// run is one distributed job: the lease table core.SolveWith drains the
// search's frontier through.  Everything else about the search — seed or
// resume, budgets, counters, failures, snapshots — is the core.Search the
// lifecycle hands to Load.
type run struct {
	c      *Coordinator
	jobID  string
	req    svto.Request
	comp   *svto.Compiled
	fprint uint64
	s      *core.Search // set by Load, before the run is registered

	mu         sync.Mutex
	tasks      [][]sim.Value // task vector per id: the frontier, then the remainders shards hand back
	pending    []int64       // grant queue
	pendingSet map[int64]bool
	done       map[int64]bool
	leases     map[int64]*lease
	// doneLeases marks lease ids whose completion was already credited, so
	// a duplicated /complete delivery (the client retries replies it never
	// saw) is recognized as a duplicate rather than a late completion.
	doneLeases map[int64]bool

	finished bool
	doneCh   chan struct{}
}

type lease struct {
	id    int64
	shard string
	ids   []int64
}

// RunOptions are the execution options of a distributed run: the same
// ones a local svto.Run takes.
type RunOptions = svto.RunOptions

// Run executes one job across the registered shards and blocks until it
// completes, the context cancels, or a budget expires — the distributed
// counterpart of svto.Run, and the same search lifecycle: both call
// svto.Compiled.Solve, this one with the job's lease table as the drain.
// Non-tree algorithms (heuristic1, state-only) have no frontier to shard
// and run in-process.
//
// A snapshot written by a local run resumes distributed (and vice versa)
// because both share one lifecycle, fingerprint and format.
func (c *Coordinator) Run(ctx context.Context, jobID string, req svto.Request, opts RunOptions) (*svto.Result, error) {
	comp, err := svto.Compile(req, opts.Baseline)
	if err != nil {
		return nil, err
	}
	opt, err := comp.CoreOptions(req, opts)
	if err != nil {
		return nil, err
	}
	opt.Checkpoint.FS = c.cfg.FS
	if opt.Algorithm != core.AlgHeuristic2 && opt.Algorithm != core.AlgExact {
		return comp.Solve(ctx, req, opt, nil)
	}
	r := &run{
		c:          c,
		jobID:      jobID,
		req:        req,
		comp:       comp,
		fprint:     comp.Prob.SearchFingerprint(opt),
		pendingSet: make(map[int64]bool),
		done:       make(map[int64]bool),
		leases:     make(map[int64]*lease),
		doneLeases: make(map[int64]bool),
		doneCh:     make(chan struct{}),
	}
	defer c.removeRun(r)
	return comp.Solve(ctx, req, opt, r)
}

// Parallelism is the live shards' total worker count.
func (r *run) Parallelism() int { return r.c.parallelism() }

// Load queues the frontier in order and registers the run, which makes it
// visible to shards.
func (r *run) Load(s *core.Search, tasks [][]sim.Value) error {
	r.s = s
	r.tasks = tasks
	for id := range tasks {
		r.pending = append(r.pending, int64(id))
		r.pendingSet[int64(id)] = true
	}
	return r.c.addRun(r)
}

// Explore serves leases until the last task is done, the budget
// interrupts the run, or ctx ends, re-queueing expired leases every Tick.
func (r *run) Explore(ctx context.Context) error {
	t := time.NewTicker(r.c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-r.doneCh:
			return nil
		case <-ctx.Done():
			r.mu.Lock()
			r.s.Interrupt()
			r.finishLocked()
			r.mu.Unlock()
			return nil
		case <-t.C:
			r.expireLeases()
		}
	}
}

// Open lists the tasks not yet done: the leased ones, whole, then the
// grant queue in order.  complete credits a lease's counters and settles
// its tasks under r.mu, so reading the counters under it too (read) makes
// the two one consistent cut.
func (r *run) Open(read func()) [][]sim.Value {
	r.mu.Lock()
	defer r.mu.Unlock()
	read()
	var open [][]sim.Value
	for id, t := range r.tasks {
		if !r.done[int64(id)] && !r.pendingSet[int64(id)] {
			open = append(open, t)
		}
	}
	for _, id := range r.pending {
		if !r.done[id] {
			open = append(open, r.tasks[id])
		}
	}
	return open
}

func (c *Coordinator) addRun(r *run) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.runs[r.jobID]; ok {
		return fmt.Errorf("dist: job %q is already running", r.jobID)
	}
	c.runs[r.jobID] = r
	return nil
}

func (c *Coordinator) removeRun(r *run) {
	c.mu.Lock()
	if c.runs[r.jobID] == r {
		delete(c.runs, r.jobID)
	}
	c.mu.Unlock()
}

func (c *Coordinator) getRun(jobID string) *run {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs[jobID]
}

// RunningJobs returns the ids of jobs currently being distributed.
func (c *Coordinator) RunningJobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.runs))
	for id := range c.runs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// finishLocked closes doneCh exactly once; callers hold r.mu.
func (r *run) finishLocked() {
	if !r.finished {
		r.finished = true
		close(r.doneCh)
	}
}

// openCount is the number of tasks not yet done; callers hold r.mu.
func (r *run) openCount() int { return len(r.tasks) - len(r.done) }

// expireLeases re-queues the tasks of every lease whose shard has been
// silent past the TTL, whole.  The lease record is dropped: a late
// completion from a shard that was merely slow is still merged for its
// incumbent, but its counters and task credits are discarded (another shard
// re-runs those tasks and gets the credit — the rule the in-process pool
// applies to a dead worker's task).
func (r *run) expireLeases() {
	live := r.c.liveShards()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, l := range r.leases {
		if live[l.shard] {
			continue
		}
		requeued := r.requeueLocked(l)
		delete(r.leases, id)
		r.c.leaseExpiries.Add(1)
		r.c.logf("dist: job %s: shard %s lease %d expired, %d tasks re-queued", r.jobID, l.shard, id, requeued)
		if requeued > 0 {
			r.s.RecordFailure(core.WorkerFailure{
				Worker: -1,
				Err:    fmt.Sprintf("shard %s died or stalled: lease %d expired, %d tasks re-queued", l.shard, id, requeued),
			})
		}
	}
}

// lease grants a batch to a shard; caller does not hold any lock.
func (r *run) lease(req LeaseRequest) LeaseReply {
	liveShards := len(r.c.liveShards())
	if liveShards < 1 {
		liveShards = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return LeaseReply{Done: true}
	}
	remainingBudget, ok := r.s.ChargeLeaves(0)
	if !ok {
		r.s.Interrupt()
		r.finishLocked()
		return LeaseReply{Done: true}
	}

	// Grant size: guided self-scheduling — a quarter of an even share of
	// the pending work per live shard, clamped to the configured batch cap.
	// Finer grants keep shards load-balanced through pruning imbalance
	// without resorting to work stealing, which duplicates the victim's
	// open tasks.
	max := r.c.cfg.MaxLeaseTasks
	n := (len(r.pending) + 4*liveShards - 1) / (4 * liveShards)
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}

	var ids []int64
	for len(r.pending) > 0 && len(ids) < n {
		id := r.pending[0]
		r.pending = r.pending[1:]
		delete(r.pendingSet, id)
		if r.done[id] {
			continue // finished by a stolen duplicate while queued
		}
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		ids = r.stealLocked(req.Shard, max)
	}
	if len(ids) == 0 {
		if r.openCount() == 0 {
			r.finishLocked()
			return LeaseReply{Done: true}
		}
		return LeaseReply{Wait: true, Incumbent: r.wireBest(), Epoch: r.bestEpoch()}
	}

	leaseID := r.c.leases.Add(1)
	l := &lease{id: leaseID, shard: req.Shard, ids: ids}
	r.leases[leaseID] = l

	reply := LeaseReply{
		LeaseID:   leaseID,
		MaxLeaves: remainingBudget,
		Incumbent: r.wireBest(),
		Epoch:     r.bestEpoch(),
	}
	for _, id := range ids {
		reply.Tasks = append(reply.Tasks, core.TaskBytes(r.tasks[id]))
	}
	return reply
}

// stealLocked duplicates the tail half of the busiest lease when the
// pending queue has drained: the thief races the original holder over the
// same task ids, the done-set keeps whichever finishes first and
// de-duplicates the other's credit.  Other shards' leases are preferred,
// but a shard may steal from itself — that resolves the phantom-lease
// case, where a lease-grant reply was lost on the network and the
// "holder" (this very shard, which completes each batch before leasing
// another) never learned of it, yet stays live so the lease never
// expires.  Callers hold r.mu.
func (r *run) stealLocked(thief string, max int) []int64 {
	var victim *lease
	var victimOpen []int64
	pick := func(own bool) {
		for _, l := range r.leases {
			if (l.shard == thief) != own {
				continue
			}
			var open []int64
			for _, id := range l.ids {
				if !r.done[id] {
					open = append(open, id)
				}
			}
			if len(open) > len(victimOpen) {
				victim, victimOpen = l, open
			}
		}
	}
	pick(false)
	if victim == nil {
		pick(true)
	}
	if victim == nil || len(victimOpen) == 0 {
		return nil
	}
	n := (len(victimOpen) + 1) / 2
	if n > max {
		n = max
	}
	stolen := append([]int64(nil), victimOpen[len(victimOpen)-n:]...)
	r.c.logf("dist: job %s: shard %s stole %d of %d open tasks from shard %s (lease %d)",
		r.jobID, thief, len(stolen), len(victimOpen), victim.shard, victim.id)
	return stolen
}

// requeueLocked queues the lease's tasks that are neither done nor already
// queued, whole, at the back of the grant queue, and returns how many it
// queued.  Callers hold r.mu.
func (r *run) requeueLocked(l *lease) int {
	n := 0
	for _, id := range l.ids {
		if !r.done[id] && !r.pendingSet[id] {
			r.pending = append(r.pending, id)
			r.pendingSet[id] = true
			n++
		}
	}
	return n
}

// remainderTasks decodes a completion's Remaining, requiring each vector
// to be a task of this search that extends one of the lease's tasks.
func (r *run) remainderTasks(l *lease, rem [][]byte) ([][]sim.Value, error) {
	tasks := make([][]sim.Value, 0, len(rem))
	for i, b := range rem {
		t, err := r.comp.Prob.TaskFromBytes(b, r.s.SplitDepth())
		if err != nil {
			return nil, fmt.Errorf("remaining task %d: %v", i, err)
		}
		if !slices.ContainsFunc(l.ids, func(id int64) bool { return extends(t, r.tasks[id]) }) {
			return nil, fmt.Errorf("remaining task %d extends no task of lease %d", i, l.id)
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// extends reports whether task t lies in the subtree of task u: t holds
// every value u assigns.
func extends(t, u []sim.Value) bool {
	for i, v := range u {
		if v != sim.X && t[i] != v {
			return false
		}
	}
	return true
}

// complete merges a finished (or interrupted) batch; caller does not hold
// any lock.  A live lease's completion settles all its tasks: they are
// marked done, the shard's counters are credited, and its Remaining is
// queued ahead of every pending task as new tasks — the order the shard's
// own pool would have taken them in.  Monotone-incumbent + done-set dedup
// make it safe for the same tasks to be reported by several shards
// (steals) or after the lease already expired (slow shard): a completion
// whose lease holds a task another completion already settled is credited
// nothing, and its unsettled tasks are re-queued whole, as is every task of
// a completion whose Remaining is not a remainder of its lease.  Such
// completions only contribute their incumbent.
func (r *run) complete(req CompleteRequest) {
	if req.Incumbent != nil {
		r.offerWire(req.Incumbent)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	l := r.leases[req.LeaseID]
	if l == nil {
		// Credit nothing: either a duplicated delivery of a completion we
		// already merged (the shard's retry after a lost reply) or a late
		// completion whose lease already expired.  Only the incumbent above
		// was worth keeping; monotonicity made that merge harmless.
		if r.doneLeases[req.LeaseID] {
			r.c.dupCompletions.Add(1)
		} else {
			r.c.lateCompletions.Add(1)
		}
		return
	}
	delete(r.leases, req.LeaseID)
	r.doneLeases[req.LeaseID] = true
	if r.finished {
		// The search has ended and taken its result and final snapshot:
		// crediting now would count tasks the snapshot still lists as open.
		return
	}
	// Budget tickets are charged for every live-lease completion, credited
	// or not: the leaves a batch evaluated were spent even when its report
	// is discarded.  Stolen duplicates may double-charge tickets; the
	// budget is a global upper bound, never a precise counter.
	_, budgetLeft := r.s.ChargeLeaves(req.LeavesUsed)
	rem, err := r.remainderTasks(l, req.Remaining)
	switch {
	case err != nil:
		r.requeueLocked(l)
		r.s.RecordFailure(core.WorkerFailure{
			Worker: -1,
			Err:    fmt.Sprintf("shard %s: lease %d re-queued whole: %v", req.Shard, l.id, err),
		})
	case slices.ContainsFunc(l.ids, func(id int64) bool { return r.done[id] }):
		r.requeueLocked(l)
	default:
		for _, id := range l.ids {
			r.done[id] = true
		}
		r.s.Credit(req.Stats)
		ids := make([]int64, len(rem))
		for i, t := range rem {
			ids[i] = int64(len(r.tasks))
			r.tasks = append(r.tasks, t)
			r.pendingSet[ids[i]] = true
		}
		r.pending = append(ids, r.pending...)
	}
	if req.Failure != "" {
		r.s.RecordFailure(core.WorkerFailure{
			Worker: -1,
			Err:    fmt.Sprintf("shard %s: %s", req.Shard, req.Failure),
		})
	}
	if !budgetLeft && r.openCount() > 0 {
		r.s.Interrupt()
		r.finishLocked()
		return
	}
	if r.openCount() == 0 {
		r.finishLocked()
	}
}

// offerWire resolves and merges an incumbent arriving off the wire.
func (r *run) offerWire(w *checkpoint.Incumbent) {
	sol, err := r.comp.Prob.ResolveIncumbent(w)
	if err != nil {
		r.c.logf("dist: job %s: rejecting wire incumbent: %v", r.jobID, err)
		return
	}
	r.s.Incumbent().Offer(sol)
}

// wireBest encodes the current incumbent (never nil: the seed is offered
// before the run is registered).
func (r *run) wireBest() *checkpoint.Incumbent {
	w, err := r.comp.Prob.EncodeIncumbent(r.s.Incumbent().Best())
	if err != nil {
		r.c.logf("dist: job %s: encoding incumbent: %v", r.jobID, err)
		return nil
	}
	return w
}

func (r *run) bestEpoch() int64 {
	_, epoch := r.s.Incumbent().BestEpoch()
	return epoch
}

// sync handles a heartbeat/incumbent exchange; caller does not hold any
// lock.
func (r *run) sync(req SyncRequest) SyncReply {
	if req.Incumbent != nil {
		r.offerWire(req.Incumbent)
	}
	sol, epoch := r.s.Incumbent().BestEpoch()
	reply := SyncReply{Epoch: epoch}
	if epoch > req.Epoch && sol != nil {
		if w, err := r.comp.Prob.EncodeIncumbent(sol); err == nil {
			reply.Incumbent = w
		}
	}
	r.mu.Lock()
	reply.Done = r.finished
	r.mu.Unlock()
	return reply
}

// Handler serves the shard-facing wire protocol under APIPrefix.  Every
// response carries this incarnation's run nonce, and any request echoing a
// *different* nonce is fenced off with 409 before it can touch state: a
// restarted coordinator re-allocates lease IDs from zero, so a stale
// shard's /complete for old lease N must never credit new lease N.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+APIPrefix+"/register", c.handleRegister)
	mux.HandleFunc("GET "+APIPrefix+"/job", c.handleJob)
	mux.HandleFunc("POST "+APIPrefix+"/lease", c.handleLease)
	mux.HandleFunc("POST "+APIPrefix+"/complete", c.handleComplete)
	mux.HandleFunc("POST "+APIPrefix+"/sync", c.handleSync)
	return http.HandlerFunc(func(w http.ResponseWriter, rq *http.Request) {
		w.Header().Set(NonceHeader, c.nonce)
		if got := rq.Header.Get(NonceHeader); got != "" && got != c.nonce {
			c.staleNonces.Add(1)
			http.Error(w, "stale run nonce: coordinator restarted", http.StatusConflict)
			return
		}
		mux.ServeHTTP(w, rq)
	})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, rq *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, rq, &req) {
		return
	}
	if req.Shard == "" {
		http.Error(w, "shard name required", http.StatusBadRequest)
		return
	}
	c.touch(req.Shard, req.Workers, req.Health)
	c.logf("dist: shard %s registered (%d workers)", req.Shard, req.Workers)
	writeJSON(w, struct{}{})
}

// handleJob hands the shard the running job with the most open work.
func (c *Coordinator) handleJob(w http.ResponseWriter, rq *http.Request) {
	c.touch(rq.URL.Query().Get("shard"), -1, nil)
	var pick *run
	best := 0
	c.mu.Lock()
	runs := make([]*run, 0, len(c.runs))
	for _, r := range c.runs {
		runs = append(runs, r)
	}
	c.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		open := 0
		if !r.finished {
			open = r.openCount()
		}
		r.mu.Unlock()
		if open > best {
			pick, best = r, open
		}
	}
	if pick == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, JobInfo{
		JobID:       pick.jobID,
		Request:     pick.req,
		SplitDepth:  pick.s.SplitDepth(),
		Fingerprint: pick.fprint,
		Workers:     pick.req.Search.Workers,
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, rq *http.Request) {
	var req LeaseRequest
	if !decodeJSON(w, rq, &req) {
		return
	}
	c.touch(req.Shard, -1, nil)
	r := c.getRun(req.JobID)
	if r == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, r.lease(req))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, rq *http.Request) {
	var req CompleteRequest
	if !decodeJSON(w, rq, &req) {
		return
	}
	c.touch(req.Shard, -1, nil)
	r := c.getRun(req.JobID)
	if r == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	r.complete(req)
	writeJSON(w, struct{}{})
}

func (c *Coordinator) handleSync(w http.ResponseWriter, rq *http.Request) {
	var req SyncRequest
	if !decodeJSON(w, rq, &req) {
		return
	}
	c.touch(req.Shard, -1, req.Health)
	r := c.getRun(req.JobID)
	if r == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, r.sync(req))
}

func decodeJSON(w http.ResponseWriter, rq *http.Request, v any) bool {
	body := http.MaxBytesReader(w, rq.Body, maxWireBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
