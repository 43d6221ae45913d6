package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svto/internal/core"
	"svto/internal/sim"
	"svto/pkg/svto"
)

// ShardConfig configures one worker shard process.
type ShardConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// Name identifies this shard; defaults to hostname/pid.
	Name string
	// Workers is the local search width per batch; 0 adopts the job's own
	// worker setting (falling back to GOMAXPROCS inside the engine).
	Workers int
	// PollInterval is the idle cadence (no job, or all tasks leased
	// elsewhere); 0 defaults to 500ms.
	PollInterval time.Duration
	// SyncInterval is the heartbeat / incumbent-exchange cadence while a
	// batch runs; 0 defaults to 200ms.
	SyncInterval time.Duration
	// Retry shapes the per-RPC backoff; the zero value uses the defaults
	// documented on RetryPolicy.
	Retry RetryPolicy
	// Client overrides the HTTP client (nil = a plain client with a 30s
	// timeout).
	Client *http.Client
	// Logf, when non-nil, receives shard diagnostics.
	Logf func(format string, args ...any)
}

// RunShard joins the coordinator and processes leased task batches until
// the context cancels: register, poll for a job, then lease → SolveTasks →
// complete in a loop, with a background sync pump exchanging incumbents
// both ways while each batch runs.  A shard holds no durable state — if it
// dies, its leases expire at the coordinator and the tasks are re-queued.
//
// Every RPC retries with capped exponential backoff + jitter, so a lossy
// network degrades throughput, never correctness.  A coordinator restart
// (detected through the run-nonce fence) aborts the in-flight job, and the
// shard re-registers and re-does the fingerprint handshake with the new
// coordinator incarnation before accepting more work.
func RunShard(ctx context.Context, cfg ShardConfig) error {
	if cfg.Coordinator == "" {
		return fmt.Errorf("dist: shard needs a coordinator URL")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "shard"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = 200 * time.Millisecond
	}
	s := &shard{
		cfg: cfg,
		cl:  newClient(strings.TrimRight(cfg.Coordinator, "/")+APIPrefix, cfg.Client, cfg.Retry),
	}

	registered := false
	for ctx.Err() == nil {
		// (Re-)handshake: forget any adopted nonce so the registration
		// reply re-adopts whichever coordinator incarnation now answers.
		s.cl.resetNonce()
		if !s.register(ctx) {
			return nil
		}
		if registered {
			s.cl.counters.addReregistration()
			s.logf("dist: shard %s: re-registered with %s after coordinator restart", cfg.Name, cfg.Coordinator)
		} else {
			s.logf("dist: shard %s: registered with %s", cfg.Name, cfg.Coordinator)
		}
		registered = true
		s.pollJobs(ctx)
	}
	return nil
}

type shard struct {
	cfg ShardConfig
	cl  *client
}

func (s *shard) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// register announces the shard (with its current health snapshot) until
// it succeeds; false means the context canceled first.
func (s *shard) register(ctx context.Context) bool {
	for {
		err := s.cl.post(ctx, "/register", RegisterRequest{
			Shard: s.cfg.Name, Workers: s.cfg.Workers, Health: s.cl.counters.snapshot(),
		}, nil)
		if err == nil {
			return true
		}
		s.logf("dist: shard %s: register: %v", s.cfg.Name, err)
		if !sleepCtx(ctx, s.cfg.PollInterval) {
			return false
		}
	}
}

// pollJobs is the idle loop: ask for work, run it, repeat.  It returns
// when the context cancels or a coordinator restart is detected (the
// caller re-registers).
func (s *shard) pollJobs(ctx context.Context) {
	for {
		if ctx.Err() != nil {
			return
		}
		var info JobInfo
		status, err := s.cl.get(ctx, "/job?shard="+url.QueryEscape(s.cfg.Name), &info)
		switch {
		case errors.Is(err, ErrCoordinatorRestarted):
			s.logf("dist: shard %s: %v", s.cfg.Name, err)
			return
		case err != nil:
			s.logf("dist: shard %s: poll: %v", s.cfg.Name, err)
		case status == http.StatusNoContent:
			// idle
		case status == http.StatusOK:
			if restarted := s.runJob(ctx, info); restarted {
				return
			}
			continue // immediately look for the next job
		}
		if !sleepCtx(ctx, s.cfg.PollInterval) {
			return
		}
	}
}

// runJob drains one job's leases until the coordinator reports it done
// (or gone, or the context cancels).  The returned bool reports a
// detected coordinator restart: the in-flight lease is abandoned (the
// restarted coordinator re-expanded its frontier from the checkpoint, so
// nothing is lost) and the caller must re-register.
func (s *shard) runJob(ctx context.Context, info JobInfo) (restarted bool) {
	// Compile characterizes through library.Cached, which builds each
	// library once per process, so consecutive jobs on one library share it.
	comp, err := svto.Compile(info.Request, nil)
	if err != nil {
		s.logf("dist: shard %s: job %s: compile: %v", s.cfg.Name, info.JobID, err)
		sleepCtx(ctx, s.cfg.PollInterval)
		return false
	}
	coreOpt, err := comp.CoreOptions(info.Request, svto.RunOptions{})
	if err != nil {
		s.logf("dist: shard %s: job %s: options: %v", s.cfg.Name, info.JobID, err)
		sleepCtx(ctx, s.cfg.PollInterval)
		return false
	}
	// The fingerprint handshake: both processes hash the problem they
	// compiled; a mismatch means a library, technology or version skew and
	// any exchanged task would explore the wrong space.
	if got := comp.Prob.SearchFingerprint(coreOpt); got != info.Fingerprint {
		s.logf("dist: shard %s: job %s: fingerprint mismatch (coordinator %016x, local %016x); refusing job",
			s.cfg.Name, info.JobID, info.Fingerprint, got)
		sleepCtx(ctx, s.cfg.PollInterval)
		return false
	}

	workers := s.cfg.Workers
	if info.Workers > 0 && (workers <= 0 || info.Workers < workers) {
		workers = info.Workers
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	share := core.NewSharedIncumbent(comp.Prob)
	pump := s.startPump(jobCtx, cancel, comp.Prob, share, info.JobID)
	defer pump.stop()

	for {
		if jobCtx.Err() != nil {
			return pump.restarted.Load()
		}
		var lr LeaseReply
		status, err := s.cl.postStatus(jobCtx, "/lease",
			LeaseRequest{Shard: s.cfg.Name, JobID: info.JobID}, &lr)
		if err != nil {
			if errors.Is(err, ErrCoordinatorRestarted) {
				s.logf("dist: shard %s: job %s: %v; abandoning lease loop", s.cfg.Name, info.JobID, err)
				return true
			}
			if status == http.StatusNotFound {
				return pump.restarted.Load() // job finished and was torn down
			}
			s.logf("dist: shard %s: job %s: lease: %v", s.cfg.Name, info.JobID, err)
			if !sleepCtx(jobCtx, s.cfg.PollInterval) {
				return pump.restarted.Load()
			}
			continue
		}
		if lr.Done {
			return pump.restarted.Load()
		}
		if lr.Incumbent != nil {
			if sol, rerr := comp.Prob.ResolveIncumbent(lr.Incumbent); rerr == nil {
				share.Offer(sol)
			} else {
				s.logf("dist: shard %s: job %s: lease incumbent: %v", s.cfg.Name, info.JobID, rerr)
			}
		}
		pump.observe(lr.Epoch)
		if lr.Wait {
			if !sleepCtx(jobCtx, s.cfg.PollInterval) {
				return pump.restarted.Load()
			}
			continue
		}
		if restarted := s.runBatch(jobCtx, comp, coreOpt, workers, share, info, lr); restarted {
			return true
		}
	}
}

// runBatch solves one leased batch and reports it.  The returned bool
// reports a coordinator restart detected while completing.
func (s *shard) runBatch(ctx context.Context, comp *svto.Compiled, coreOpt core.Options,
	workers int, share *core.SharedIncumbent, info JobInfo, lr LeaseReply) (restarted bool) {
	tasks := make([][]sim.Value, 0, len(lr.Tasks))
	taskID := make(map[string]int64, len(lr.Tasks))
	for i, b := range lr.Tasks {
		t, err := comp.Prob.TaskFromBytes(b, info.SplitDepth)
		if err != nil || i >= len(lr.TaskIDs) {
			// A malformed task (torn reply, version skew) poisons the whole
			// lease: hand every task straight back so the coordinator
			// re-queues at once instead of waiting out the lease TTL.
			s.logf("dist: shard %s: job %s: bad task in lease %d, returning batch: %v",
				s.cfg.Name, info.JobID, lr.LeaseID, err)
			return s.complete(ctx, CompleteRequest{
				Shard: s.cfg.Name, JobID: info.JobID, LeaseID: lr.LeaseID,
				Remaining: lr.TaskIDs,
				Failure:   fmt.Sprintf("bad task in lease %d: %v", lr.LeaseID, err),
			}, info)
		}
		tasks = append(tasks, t)
		taskID[string(b)] = lr.TaskIDs[i]
	}

	seed := share.Best()
	if seed == nil {
		// The coordinator sends its incumbent with every lease, so this
		// only happens if that encode failed; hand the batch back and let
		// the next lease retry the exchange.
		s.logf("dist: shard %s: job %s: no incumbent with lease %d, returning batch", s.cfg.Name, info.JobID, lr.LeaseID)
		restarted = s.complete(ctx, CompleteRequest{
			Shard: s.cfg.Name, JobID: info.JobID, LeaseID: lr.LeaseID, Remaining: lr.TaskIDs,
		}, info)
		sleepCtx(ctx, s.cfg.PollInterval)
		return restarted
	}
	zero := *seed
	zero.Stats = core.SearchStats{}

	opt := core.Options{
		Algorithm:  coreOpt.Algorithm,
		Penalty:    coreOpt.Penalty,
		Workers:    workers,
		SplitDepth: info.SplitDepth,
		MaxLeaves:  lr.MaxLeaves,
		Share:      share,
	}
	tr, serr := comp.Prob.SolveTasks(ctx, opt, &zero, tasks)

	creq := CompleteRequest{Shard: s.cfg.Name, JobID: info.JobID, LeaseID: lr.LeaseID}
	if serr != nil {
		creq.Failure = serr.Error()
	}
	if tr == nil {
		// Infrastructure failure before any work: everything remains.
		creq.Remaining = lr.TaskIDs
	} else {
		creq.Stats = tr.Best.Stats.Counters
		creq.LeavesUsed = tr.LeavesUsed
		for _, t := range tr.Remaining {
			id, ok := taskID[string(core.TaskBytes(t))]
			if !ok {
				s.logf("dist: shard %s: job %s: unknown remaining task in lease %d", s.cfg.Name, info.JobID, lr.LeaseID)
				continue
			}
			creq.Remaining = append(creq.Remaining, id)
		}
	}
	if best := share.Best(); best != nil {
		if w, werr := comp.Prob.EncodeIncumbent(best); werr == nil {
			creq.Incumbent = w
		}
	}
	restarted = s.complete(ctx, creq, info)
	if serr != nil {
		s.logf("dist: shard %s: job %s: batch error: %v", s.cfg.Name, info.JobID, serr)
		sleepCtx(ctx, s.cfg.PollInterval)
	}
	return restarted
}

// complete reports a lease outcome.  The client already retries transient
// failures with backoff; if the RPC still fails, the lease TTL re-queues
// the batch (our stats are lost but another shard's re-run recounts
// them), and duplicated delivery of a successful completion is dropped by
// the coordinator's shard+leaseID dedup, so retrying is always safe.
func (s *shard) complete(ctx context.Context, creq CompleteRequest, info JobInfo) (restarted bool) {
	status, err := s.cl.postStatus(ctx, "/complete", creq, nil)
	switch {
	case errors.Is(err, ErrCoordinatorRestarted):
		s.logf("dist: shard %s: job %s: %v; abandoning lease %d", s.cfg.Name, info.JobID, err, creq.LeaseID)
		return true
	case err != nil && status != http.StatusNotFound:
		s.logf("dist: shard %s: job %s: complete lease %d failed, coordinator will re-queue: %v",
			s.cfg.Name, info.JobID, creq.LeaseID, err)
	}
	return false
}

// pump is the background sync loop of one job: heartbeat, push local
// incumbent improvements, pull remote ones.  It cancels the job context
// when the coordinator reports the job done or gone, and records a
// detected coordinator restart for the lease loop to act on.
type pump struct {
	stopOnce  sync.Once
	stopCh    chan struct{}
	wg        sync.WaitGroup
	restarted atomic.Bool
	epochMu   sync.Mutex
	remote    int64 // last coordinator epoch observed anywhere
}

// observe records a coordinator epoch learned outside the pump (from a
// lease reply), so the next sync does not re-fetch an incumbent the shard
// already has.
func (p *pump) observe(epoch int64) {
	p.epochMu.Lock()
	if epoch > p.remote {
		p.remote = epoch
	}
	p.epochMu.Unlock()
}

func (p *pump) stop() {
	p.stopOnce.Do(func() { close(p.stopCh) })
	p.wg.Wait()
}

func (s *shard) startPump(ctx context.Context, cancel context.CancelFunc,
	prob *core.Problem, share *core.SharedIncumbent, jobID string) *pump {
	p := &pump{stopCh: make(chan struct{})}
	notify := make(chan struct{}, 1)
	subID := share.Subscribe(func(*core.Solution) {
		select {
		case notify <- struct{}{}:
		default:
		}
	})
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer share.Unsubscribe(subID)
		t := time.NewTicker(s.cfg.SyncInterval)
		defer t.Stop()
		var pushed int64 // local epoch last pushed to the coordinator
		for {
			select {
			case <-ctx.Done():
				return
			case <-p.stopCh:
				return
			case <-t.C:
			case <-notify:
			}
			local, localEpoch := share.BestEpoch()
			p.epochMu.Lock()
			remote := p.remote
			p.epochMu.Unlock()
			req := SyncRequest{Shard: s.cfg.Name, JobID: jobID, Epoch: remote,
				Health: s.cl.counters.snapshot()}
			if localEpoch > pushed && local != nil {
				if w, err := prob.EncodeIncumbent(local); err == nil {
					req.Incumbent = w
					pushed = localEpoch
				}
			}
			var reply SyncReply
			status, err := s.cl.postStatus(ctx, "/sync", req, &reply)
			if err != nil {
				if errors.Is(err, ErrCoordinatorRestarted) {
					p.restarted.Store(true)
					cancel()
					return
				}
				if status == http.StatusNotFound {
					cancel()
					return
				}
				continue
			}
			p.observe(reply.Epoch)
			if reply.Incumbent != nil {
				if sol, rerr := prob.ResolveIncumbent(reply.Incumbent); rerr == nil {
					// Attribute the install to this subscriber so the pump
					// is not re-woken by its own merge.
					share.OfferFrom(subID, sol)
				}
			}
			if reply.Done {
				cancel()
				return
			}
		}
	}()
	return p
}

// sleepCtx sleeps d or until ctx cancels; reports whether ctx is still
// live.  A stopped timer (not time.After) so tight poll/retry cadences do
// not pile up pending timers for the garbage collector.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return ctx.Err() == nil
	}
}
