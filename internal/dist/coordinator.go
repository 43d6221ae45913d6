package dist

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
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
	// Tick is the maintenance cadence (lease expiry scan, progress
	// delivery, checkpoint interval check); 0 defaults to 200ms.
	Tick time.Duration
	// FS overrides snapshot I/O (fault injection in tests); nil uses the
	// real filesystem.
	FS checkpoint.FS
	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

// Coordinator owns the distributed half of a sharded search: the shard
// registry and, per running job, the task pool, lease table, merged
// counters and checkpoint file.  It is driven from two sides — Run (one
// call per job, blocking like svto.Run) and the HTTP handlers shards talk
// to — and is safe for concurrent use.
//
// Lock order: Coordinator.mu and run.mu are never held together; a run may
// touch its SharedIncumbent's lock while holding run.mu, never the reverse.
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

func (c *Coordinator) fs() checkpoint.FS {
	if c.cfg.FS != nil {
		return c.cfg.FS
	}
	return checkpoint.OS
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
// DefaultSplitDepth scales the frontier from.
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

// run is one distributed job: the coordinator-side task pool and counters.
type run struct {
	c     *Coordinator
	jobID string
	req   svto.Request
	comp  *svto.Compiled
	opt   core.Options

	fprint     uint64
	splitDepth int
	start      time.Time
	prior      time.Duration // wall clock spent by resumed prior runs
	ckPath     string
	ckInterval time.Duration

	inc *core.SharedIncumbent

	mu         sync.Mutex
	tasks      [][]sim.Value // frontier vector per task id (index = id)
	pending    []int64       // grant queue, frontier order
	pendingSet map[int64]bool
	done       map[int64]bool
	leases     map[int64]*lease
	// doneLeases marks lease ids whose completion was already credited, so
	// a duplicated /complete delivery (the client retries replies it never
	// saw) is recognized as a duplicate rather than a late completion.
	doneLeases map[int64]bool
	stats      checkpoint.Stats
	leavesUsed int64
	failures   []core.WorkerFailure
	ckWrites   int64
	ckErrors   int64
	lastCk     time.Time

	interrupted bool
	finished    bool
	doneCh      chan struct{}
}

type lease struct {
	id    int64
	shard string
	ids   []int64
}

// RunOptions mirrors svto.RunOptions for the distributed entry point.
type RunOptions struct {
	Baseline   *svto.Baseline
	Progress   func(svto.Progress)
	Checkpoint svto.Checkpoint
}

// Run executes one job across the registered shards and blocks until it
// completes, the context cancels, or a budget expires — the distributed
// counterpart of svto.Run, returning the identical Result shape built by
// the same svto.Compiled.BuildResult.  Non-tree algorithms (heuristic1,
// state-only) have no frontier to shard and fall through to svto.Run.
//
// Checkpoints are owned here: the coordinator periodically snapshots the
// merged counters, incumbent and un-finished frontier to
// opts.Checkpoint.Path, and a snapshot written by a local run resumes
// distributed (and vice versa) because both share one fingerprint and
// format.
func (c *Coordinator) Run(ctx context.Context, jobID string, req svto.Request, opts RunOptions) (*svto.Result, error) {
	start := time.Now()
	comp, err := svto.Compile(req, opts.Baseline)
	if err != nil {
		return nil, err
	}
	coreOpt, err := comp.CoreOptions(req)
	if err != nil {
		return nil, err
	}
	if coreOpt.Algorithm != core.AlgHeuristic2 && coreOpt.Algorithm != core.AlgExact {
		return svto.Run(ctx, req, svto.RunOptions{
			Baseline: opts.Baseline, Progress: opts.Progress, Checkpoint: opts.Checkpoint,
		})
	}
	if coreOpt.Algorithm == core.AlgExact && len(comp.Prob.CC.PI) > core.MaxExactInputs {
		return nil, fmt.Errorf("dist: exact search is limited to %d primary inputs, circuit has %d",
			core.MaxExactInputs, len(comp.Prob.CC.PI))
	}
	fprint := comp.Prob.SearchFingerprint(coreOpt)

	r := &run{
		c:          c,
		jobID:      jobID,
		req:        req,
		comp:       comp,
		opt:        coreOpt,
		fprint:     fprint,
		start:      start,
		ckPath:     opts.Checkpoint.Path,
		ckInterval: opts.Checkpoint.Interval,
		inc:        core.NewSharedIncumbent(comp.Prob),
		pendingSet: make(map[int64]bool),
		done:       make(map[int64]bool),
		leases:     make(map[int64]*lease),
		doneLeases: make(map[int64]bool),
		doneCh:     make(chan struct{}),
		lastCk:     start,
	}
	if r.ckInterval <= 0 {
		r.ckInterval = 30 * time.Second
	}

	var seed *core.Solution
	var rs *core.ResumedSearch
	if r.ckPath != "" && opts.Checkpoint.Resume {
		if rs, err = comp.Prob.LoadSearch(c.fs(), r.ckPath, coreOpt); err != nil {
			return nil, err
		}
	}
	if rs != nil {
		seed = rs.Seed
		r.splitDepth = rs.SplitDepth
		r.prior = rs.Elapsed
		r.stats = rs.Stats
		r.leavesUsed = rs.LeavesUsed
		r.failures = rs.Failures
		r.tasks = rs.Tasks
	} else {
		if seed, err = comp.Prob.SeedSolution(coreOpt.Penalty); err != nil {
			return nil, err
		}
		r.splitDepth = core.DefaultSplitDepth(c.parallelism(), len(comp.Prob.CC.PI))
		frontier, expStats, ferr := comp.Prob.ExpandFrontier(coreOpt, seed, r.splitDepth)
		if ferr != nil {
			return nil, ferr
		}
		r.stats = seed.Stats.Counters
		r.stats.Add(expStats.Counters)
		r.tasks = frontier
	}
	for id := range r.tasks {
		r.pending = append(r.pending, int64(id))
		r.pendingSet[int64(id)] = true
	}
	r.inc.Offer(seed)

	if err := c.addRun(r); err != nil {
		return nil, err
	}
	defer c.removeRun(r)

	// A drained-at-start frontier (everything pruned under the seed bound)
	// completes immediately; a resumed run whose leaf budget is already
	// exhausted goes straight back to "interrupted".
	r.mu.Lock()
	if r.openCount() == 0 {
		r.finishLocked()
	} else if coreOpt.MaxLeaves > 0 && r.leavesUsed >= coreOpt.MaxLeaves {
		r.interrupted = true
		r.finishLocked()
	}
	r.mu.Unlock()

	if coreOpt.TimeLimit > 0 {
		left := coreOpt.TimeLimit - r.prior
		if left < 0 {
			left = 0
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, left)
		defer cancel()
	}

	stopMaint := make(chan struct{})
	var maintWG sync.WaitGroup
	maintWG.Add(1)
	go func() {
		defer maintWG.Done()
		r.maintain(stopMaint, opts.Progress)
	}()

	select {
	case <-r.doneCh:
	case <-ctx.Done():
		r.mu.Lock()
		r.interrupted = true
		r.finishLocked()
		r.mu.Unlock()
	}
	close(stopMaint)
	maintWG.Wait()

	// Final snapshot on interruption, removal on clean completion — the
	// same lifecycle a local checkpointed search follows.
	r.mu.Lock()
	interrupted := r.interrupted
	r.mu.Unlock()
	if r.ckPath != "" {
		if interrupted {
			r.writeSnapshot()
		} else if rerr := checkpoint.Remove(c.fs(), r.ckPath); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
			c.logf("dist: job %s: removing snapshot: %v", jobID, rerr)
		}
	}

	final := new(core.Solution)
	*final = *r.inc.Best()
	r.mu.Lock()
	final.Stats = core.SearchStats{
		Counters:         r.stats,
		Interrupted:      r.interrupted,
		WorkerFailures:   append([]core.WorkerFailure(nil), r.failures...),
		CheckpointWrites: r.ckWrites,
		CheckpointErrors: r.ckErrors,
	}
	r.mu.Unlock()

	if coreOpt.RefinePasses > 0 {
		if final, err = comp.Prob.Refine(final, coreOpt.Penalty, coreOpt.RefinePasses); err != nil {
			return nil, err
		}
	}
	final.Stats.Runtime = r.prior + time.Since(start)
	final.Stats.Resumed = rs != nil
	final.Stats.PriorRuntime = r.prior

	res, err := comp.BuildResult(req, final)
	if err != nil {
		return nil, err
	}
	if opts.Progress != nil {
		opts.Progress(svto.ProgressOf(core.Progress{
			Counters: final.Stats.Counters, BestLeak: final.Leak, Elapsed: final.Stats.Runtime,
		}))
	}
	return res, nil
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

// maintain drives the periodic duties: lease-expiry re-queue, checkpoint
// writes, and progress delivery.
func (r *run) maintain(stop <-chan struct{}, progress func(svto.Progress)) {
	t := time.NewTicker(r.c.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		r.expireLeases()
		if r.ckPath != "" {
			r.mu.Lock()
			due := time.Since(r.lastCk) >= r.ckInterval
			r.mu.Unlock()
			if due {
				r.writeSnapshot()
			}
		}
		if progress != nil {
			best := r.inc.Best()
			r.mu.Lock()
			pr := core.Progress{Counters: r.stats, BestLeak: best.Leak, Elapsed: r.prior + time.Since(r.start)}
			r.mu.Unlock()
			progress(svto.ProgressOf(pr))
		}
	}
}

// expireLeases re-queues the un-finished tasks of every lease whose shard
// has been silent past the TTL.  The lease record is dropped: a late
// completion from a shard that was merely slow is still merged for its
// incumbent, but its counters and task credits are discarded (another shard
// re-runs those tasks and gets the credit — the same rollback rule the
// in-process pool applies to dead workers' partial work).
func (r *run) expireLeases() {
	live := r.c.liveShards()
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, l := range r.leases {
		if live[l.shard] {
			continue
		}
		requeued := 0
		for _, tid := range l.ids {
			if !r.done[tid] && !r.pendingSet[tid] {
				r.pending = append(r.pending, tid)
				r.pendingSet[tid] = true
				requeued++
			}
		}
		delete(r.leases, id)
		r.c.leaseExpiries.Add(1)
		r.c.logf("dist: job %s: shard %s lease %d expired, %d tasks re-queued", r.jobID, l.shard, id, requeued)
		if requeued > 0 {
			r.failures = append(r.failures, core.WorkerFailure{
				Worker: -1,
				Err:    fmt.Sprintf("shard %s died or stalled: lease %d expired, %d tasks re-queued", l.shard, id, requeued),
			})
		}
	}
}

// writeSnapshot persists one consistent point: merged counters, the shared
// incumbent, and every not-yet-done task (leased tasks count as unexplored,
// exactly like the in-process pool's in-flight tasks).
func (r *run) writeSnapshot() {
	r.mu.Lock()
	st := &core.ResumedSearch{
		Seed:       r.inc.Best(),
		SplitDepth: r.splitDepth,
		Elapsed:    r.prior + time.Since(r.start),
		LeavesUsed: r.leavesUsed,
		Stats:      r.stats,
		Failures:   append([]core.WorkerFailure(nil), r.failures...),
	}
	for id, t := range r.tasks {
		if !r.done[int64(id)] {
			st.Tasks = append(st.Tasks, t)
		}
	}
	r.lastCk = time.Now()
	r.mu.Unlock()

	snap, err := r.comp.Prob.BuildSnapshot(r.fprint, st)
	if err != nil {
		r.c.logf("dist: job %s: snapshot incumbent: %v", r.jobID, err)
		return
	}
	werr := checkpoint.Save(r.c.fs(), r.ckPath, snap)
	r.mu.Lock()
	r.ckWrites++
	if werr != nil {
		r.ckErrors++
	}
	r.mu.Unlock()
	if werr != nil {
		r.c.logf("dist: job %s: snapshot write: %v", r.jobID, werr)
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
	remainingBudget := int64(0)
	if r.opt.MaxLeaves > 0 {
		remainingBudget = r.opt.MaxLeaves - r.leavesUsed
		if remainingBudget <= 0 {
			r.interrupted = true
			r.finishLocked()
			return LeaseReply{Done: true}
		}
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
		TaskIDs:   ids,
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

// complete merges a finished (or interrupted) batch; caller does not hold
// any lock.  Monotone-incumbent + done-set dedup make it safe for the same
// tasks to be reported by several shards (steals) or after the lease
// already expired (slow shard): credit goes to whichever completion first
// contains a not-yet-done task; everything else only contributes its
// incumbent.
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
	rem := make(map[int64]bool, len(req.Remaining))
	for _, id := range req.Remaining {
		rem[id] = true
	}
	credited := false
	for _, id := range l.ids {
		if rem[id] || r.done[id] {
			continue
		}
		r.done[id] = true
		credited = true
	}
	if credited {
		r.stats.Add(req.Stats)
	}
	// Budget tickets are charged for every live-lease completion, credited
	// or not: an interrupted batch rolls its unfinished work out of the
	// counters (so Stats.Leaves stays exactly-once), but the leaves it
	// burned must still count against the budget — otherwise a task too big
	// for the remaining budget would roll back to a zero-leaf delta and be
	// re-leased forever.  Stolen duplicates may double-charge tickets; the
	// budget is a global upper bound, never a precise counter.
	r.leavesUsed += req.LeavesUsed
	for _, id := range req.Remaining {
		if !r.done[id] && !r.pendingSet[id] {
			r.pending = append(r.pending, id)
			r.pendingSet[id] = true
		}
	}
	if req.Failure != "" {
		r.failures = append(r.failures, core.WorkerFailure{
			Worker: -1,
			Err:    fmt.Sprintf("shard %s: %s", req.Shard, req.Failure),
		})
	}
	if r.opt.MaxLeaves > 0 && r.leavesUsed >= r.opt.MaxLeaves && r.openCount() > 0 {
		r.interrupted = true
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
	r.inc.Offer(sol)
}

// wireBest encodes the current incumbent (never nil: the seed is offered
// before the run is registered).
func (r *run) wireBest() *checkpoint.Incumbent {
	w, err := r.comp.Prob.EncodeIncumbent(r.inc.Best())
	if err != nil {
		r.c.logf("dist: job %s: encoding incumbent: %v", r.jobID, err)
		return nil
	}
	return w
}

func (r *run) bestEpoch() int64 {
	_, epoch := r.inc.BestEpoch()
	return epoch
}

// sync handles a heartbeat/incumbent exchange; caller does not hold any
// lock.
func (r *run) sync(req SyncRequest) SyncReply {
	if req.Incumbent != nil {
		r.offerWire(req.Incumbent)
	}
	sol, epoch := r.inc.BestEpoch()
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
		SplitDepth:  pick.splitDepth,
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
