package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"svto/internal/core"
	"svto/internal/dist"
	"svto/internal/netlist"
	"svto/pkg/svto"
)

// Cluster settings.  The dist defaults (coordinator tick 200ms, shard poll
// 500ms, shard sync 200ms) suit long jobs; on sub-second instances their
// idle waits would outweigh the search, so the benchmark shortens them.
// Leases are capped at a few tasks so the frontier spreads over the shards
// instead of going to whichever shard asks first.
const (
	coordTick        = 5 * time.Millisecond
	shardPoll        = 5 * time.Millisecond
	shardSync        = 20 * time.Millisecond
	snapshotInterval = 100 * time.Millisecond
	leaseTasks       = 4
)

// cluster is an in-process coordinator served over loopback HTTP, with
// one-worker shards.
type cluster struct {
	coord  *dist.Coordinator
	srv    *http.Server
	base   *svto.Baseline
	ckDir  string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startCluster serves a coordinator on a loopback port and starts shards
// one-worker shards against it, returning once every shard has registered
// so the coordinator sizes each frontier for all of them.
func startCluster(shards int, ckDir string) (*cluster, error) {
	// The shards characterize the library through the same process-wide
	// cache, so this build is shared.
	base, err := svto.NewBaseline(svto.LibrarySpec{})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(ckDir, 0o755); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{
		coord:  dist.New(dist.Config{Tick: coordTick, MaxLeaseTasks: leaseTasks}),
		base:   base,
		ckDir:  ckDir,
		cancel: cancel,
	}
	c.srv = &http.Server{Handler: c.coord.Handler(), ReadHeaderTimeout: 10 * time.Second}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		// Serve returns http.ErrServerClosed once stop closes the server.
		_ = c.srv.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()
	for i := 0; i < shards; i++ {
		c.wg.Add(1)
		go func(name string) {
			defer c.wg.Done()
			// RunShard fails only on an empty coordinator URL.
			_ = dist.RunShard(ctx, dist.ShardConfig{
				Coordinator:  url,
				Name:         name,
				Workers:      1,
				PollInterval: shardPoll,
				SyncInterval: shardSync,
			})
		}(fmt.Sprintf("shard%d", i))
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.live() < shards {
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("only %d of %d shards registered", c.live(), shards)
		}
		time.Sleep(shardPoll)
	}
	return c, nil
}

func (c *cluster) live() int {
	n := 0
	for _, s := range c.coord.Shards() {
		if s.Live {
			n++
		}
	}
	return n
}

// stop cancels the shards, closes the server and waits for all of them.
func (c *cluster) stop() {
	c.cancel()
	c.srv.Close()
	c.wg.Wait()
}

// clusterRequest is the wire request of a cluster job: the instance's
// netlist inline, the job's search settings (Seed 0, as in options).
func (b *bench) clusterRequest(j jobSpec) (svto.Request, error) {
	var text strings.Builder
	if err := netlist.WriteBench(&text, b.insts[j.inst].circ); err != nil {
		return svto.Request{}, err
	}
	return svto.Request{
		Design: svto.DesignSpec{Bench: text.String(), Name: j.inst},
		Search: svto.SearchSpec{
			Algorithm: svto.Algorithm(j.alg.String()),
			Penalty:   j.penalty,
			Workers:   j.workers,
			MaxLeaves: j.maxLeaves,
		},
	}, nil
}

// clusterRun runs one job through the coordinator, which snapshots it
// every snapshotInterval and removes the snapshot when the job completes.
func (b *bench) clusterRun(ctx context.Context, jobID string, req svto.Request) (*svto.Result, error) {
	return b.clu.coord.Run(ctx, jobID, req, dist.RunOptions{
		Baseline:   b.clu.base,
		Checkpoint: svto.Checkpoint{Path: filepath.Join(b.clu.ckDir, jobID+".ckpt"), Interval: snapshotInterval},
	})
}

// runClusterJob runs and checks one timed cluster solve.
func (b *bench) runClusterJob(ctx context.Context, j jobSpec, jobID string) outcome {
	req, err := b.clusterRequest(j)
	if err != nil {
		return outcome{err: err}
	}
	start := time.Now()
	res, err := b.clusterRun(ctx, jobID, req)
	o := outcome{start: start, dur: time.Since(start)}
	// The coordinator runs the job on nproc one-worker shards.
	o.unitS = b.burst(o.dur, b.cfg.nproc)
	if o.err = b.checkCluster(j, res, err); o.err != nil {
		return o
	}
	o.leak, o.leaves = res.LeakNA, float64(res.Stats.Leaves)
	return o
}

// checkCluster applies the per-solve checks to a cluster result.  The
// result carries no choice pointers to re-time, so its reported delay is
// checked against the budget; its objective must equal the Workers=1 local
// optimum, whose delay was re-timed from scratch.
func (b *bench) checkCluster(j jobSpec, res *svto.Result, err error) error {
	if err != nil {
		return err
	}
	if len(res.WorkerFailures) > 0 {
		return fmt.Errorf("worker failures: %v", res.WorkerFailures)
	}
	if res.Interrupted && j.maxLeaves == 0 {
		return errors.New("cluster run interrupted without a leaf budget")
	}
	if res.DelayPS > res.BudgetPS+core.DelayEps {
		return fmt.Errorf("delay %.6f ps exceeds the budget %.6f ps", res.DelayPS, res.BudgetPS)
	}
	return b.checkObjective(j, res.LeakNA, false)
}
