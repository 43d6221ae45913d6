package dist

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/internal/gen"
	"svto/internal/netlist"
	"svto/pkg/svto"
)

// benchText serializes a deterministic random mapped circuit to .bench
// text, the inline form requests carry on the wire.
func benchText(t *testing.T, name string, seed int64, inputs, gates int) string {
	t.Helper()
	circ, err := gen.RandomLogic(name, seed, inputs, gates)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// treeRequest is an exhaustive Heuristic2 search small enough for tests.
func treeRequest(t *testing.T, name string, seed int64, inputs, gates int) svto.Request {
	return svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, name, seed, inputs, gates), Name: name},
		Search: svto.SearchSpec{
			Algorithm:    svto.Heuristic2,
			Penalty:      0.05,
			Workers:      1,
			TimeLimitSec: 300,
		},
	}
}

// localRun executes req in-process with the pool engine (checkpointing
// forces it even at Workers=1), producing the reference a distributed run
// is compared against.
func localRun(t *testing.T, req svto.Request) *svto.Result {
	t.Helper()
	res, err := svto.Run(context.Background(), req, svto.RunOptions{
		Checkpoint: svto.Checkpoint{Path: filepath.Join(t.TempDir(), "local.ckpt"), Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// renderArtifacts materializes the byte-identity artifacts of a result.
func renderArtifacts(t *testing.T, res *svto.Result) (csv, verilog []byte) {
	t.Helper()
	var c, v bytes.Buffer
	if err := res.WritePowerCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), v.Bytes()
}

// newCluster serves a fresh coordinator over httptest.
func newCluster(t *testing.T, cfg Config) (*Coordinator, string) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	coord := New(cfg)
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv.URL
}

// startShard runs a worker shard against url until the test ends.
func startShard(t *testing.T, url, name string, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunShard(ctx, ShardConfig{
			Coordinator:  url,
			Name:         name,
			Workers:      workers,
			PollInterval: 10 * time.Millisecond,
			SyncInterval: 20 * time.Millisecond,
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// testClient builds the package's own wire client for hand-driving the
// protocol (fake shards).
func testClient(url string) *client {
	return newClient(strings.TrimRight(url, "/")+APIPrefix,
		&http.Client{Timeout: 10 * time.Second},
		RetryPolicy{BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
}

// waitJob polls GET /job as the named shard until the coordinator offers
// one.
func waitJob(t *testing.T, cl *client, shard string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info JobInfo
		status, err := cl.get(context.Background(), "/job?shard="+shard, &info)
		if err == nil && status == http.StatusOK {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("no job offered to %s (status %d, err %v)", shard, status, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runCluster launches coord.Run in the background and returns a collector.
func runCluster(t *testing.T, coord *Coordinator, jobID string, req svto.Request, opts RunOptions) func() *svto.Result {
	t.Helper()
	type outcome struct {
		res *svto.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := coord.Run(context.Background(), jobID, req, opts)
		ch <- outcome{res, err}
	}()
	return func() *svto.Result {
		select {
		case o := <-ch:
			if o.err != nil {
				t.Fatalf("cluster run %s: %v", jobID, o.err)
			}
			return o.res
		case <-time.After(180 * time.Second):
			t.Fatalf("cluster run %s did not finish", jobID)
			return nil
		}
	}
}

// TestClusterOneShardMatchesLocal is the determinism contract of DESIGN.md
// §5.8: one shard with one worker replays the local pool schedule, so the
// run must produce byte-identical CSV and Verilog artifacts and identical
// StateNodes/GateTrials/Leaves/Pruned counters.
func TestClusterOneShardMatchesLocal(t *testing.T) {
	req := treeRequest(t, "oneshard", 5, 10, 60)
	ref := localRun(t, req)
	refCSV, refVlog := renderArtifacts(t, ref)

	// A small lease cap forces several sequential lease→solve→complete
	// round trips, so batch boundaries are actually exercised.
	coord, url := newCluster(t, Config{MaxLeaseTasks: 3})
	startShard(t, url, "s1", 1)
	res := runCluster(t, coord, "one", req, RunOptions{})()

	if res.Interrupted {
		t.Error("exhaustive 1-shard run reported Interrupted")
	}
	if res.LeakNA != ref.LeakNA || res.IsubNA != ref.IsubNA || res.DelayPS != ref.DelayPS {
		t.Errorf("objective differs: cluster (%.6f, %.6f, %.1f) vs local (%.6f, %.6f, %.1f)",
			res.LeakNA, res.IsubNA, res.DelayPS, ref.LeakNA, ref.IsubNA, ref.DelayPS)
	}
	if res.Stats.StateNodes != ref.Stats.StateNodes ||
		res.Stats.GateTrials != ref.Stats.GateTrials ||
		res.Stats.Leaves != ref.Stats.Leaves ||
		res.Stats.Pruned != ref.Stats.Pruned {
		t.Errorf("counters differ: cluster (%d nodes, %d trials, %d leaves, %d pruned) vs local (%d, %d, %d, %d)",
			res.Stats.StateNodes, res.Stats.GateTrials, res.Stats.Leaves, res.Stats.Pruned,
			ref.Stats.StateNodes, ref.Stats.GateTrials, ref.Stats.Leaves, ref.Stats.Pruned)
	}
	gotCSV, gotVlog := renderArtifacts(t, res)
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("CSV differs from local run (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	if !bytes.Equal(gotVlog, refVlog) {
		t.Errorf("Verilog differs from local run (%d vs %d bytes)", len(gotVlog), len(refVlog))
	}
}

// TestTwoShardsMatchLocalObjective: with two real shards racing over the
// frontier (and exchanging incumbents through the sync pump), exploration
// order changes but the admissible bound keeps the optimum identical.
func TestTwoShardsMatchLocalObjective(t *testing.T) {
	req := treeRequest(t, "twoshard", 9, 10, 70)
	ref := localRun(t, req)

	coord, url := newCluster(t, Config{MaxLeaseTasks: 2})
	startShard(t, url, "s1", 1)
	startShard(t, url, "s2", 1)
	res := runCluster(t, coord, "two", req, RunOptions{})()

	if res.Interrupted {
		t.Error("exhaustive 2-shard run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("2-shard leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
	if res.Stats.Leaves != ref.Stats.Leaves {
		t.Errorf("2-shard leaves %d != local %d (mark/rollback credit broken?)",
			res.Stats.Leaves, ref.Stats.Leaves)
	}
}

// TestShardDeathRequeuesLeases: a shard that leases a batch and goes silent
// must lose it to the TTL sweep; the surviving shard re-runs the re-queued
// tasks and the job completes with the same objective, recording the death
// as a worker failure.
func TestShardDeathRequeuesLeases(t *testing.T) {
	req := treeRequest(t, "death", 5, 10, 60)
	ref := localRun(t, req)

	coord, url := newCluster(t, Config{LeaseTTL: 300 * time.Millisecond, Tick: 25 * time.Millisecond})
	wait := runCluster(t, coord, "death", req, RunOptions{})

	// The zombie takes the whole frontier and is never heard from again.
	cl := testClient(url)
	if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "zombie", Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	info := waitJob(t, cl, "zombie")
	var lr LeaseReply
	if err := cl.post(context.Background(), "/lease", LeaseRequest{Shard: "zombie", JobID: info.JobID}, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Tasks) == 0 {
		t.Fatal("zombie was granted no tasks")
	}

	// Hold the survivor back until the TTL sweep has actually re-queued the
	// zombie's lease — otherwise work stealing would drain it first and the
	// expiry path would go untested.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if coord.getRun("death") == nil {
			t.Fatal("run disappeared before the lease expired")
		}
		if coord.Health().LeaseExpiries > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("zombie lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	startShard(t, url, "survivor", 1)
	res := wait()

	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
	found := false
	for _, wf := range res.WorkerFailures {
		if strings.Contains(wf, "zombie") {
			found = true
		}
	}
	if !found {
		t.Errorf("zombie death not recorded in worker failures: %v", res.WorkerFailures)
	}
}

// TestWorkStealingDrainsStalledShard: a shard that leases the whole
// frontier and then stalls — while heartbeating, so the TTL never expires
// its lease — must have its open tasks progressively stolen by an idle
// shard, or the run would hang forever.
func TestWorkStealingDrainsStalledShard(t *testing.T) {
	req := treeRequest(t, "steal", 5, 10, 60)
	ref := localRun(t, req)

	coord, url := newCluster(t, Config{Tick: 25 * time.Millisecond})
	wait := runCluster(t, coord, "steal", req, RunOptions{})

	cl := testClient(url)
	if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "stalled", Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	info := waitJob(t, cl, "stalled")
	var lr LeaseReply
	if err := cl.post(context.Background(), "/lease", LeaseRequest{Shard: "stalled", JobID: info.JobID}, &lr); err != nil {
		t.Fatal(err)
	}
	if len(lr.Tasks) < 2 {
		t.Fatalf("stalled shard was granted %d tasks, want the whole frontier", len(lr.Tasks))
	}

	// Keep the stalled shard alive (heartbeats) but never complete.
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		for {
			select {
			case <-hbStop:
				return
			case <-time.After(50 * time.Millisecond):
			}
			var sr SyncReply
			cl.post(context.Background(), "/sync", SyncRequest{Shard: "stalled", JobID: info.JobID}, &sr)
			if sr.Done {
				return
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()

	startShard(t, url, "thief", 1)
	res := wait()

	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
}

// TestDuplicateCompletionsCreditOnce drives the protocol by hand twice —
// once completing every lease exactly once, once completing each lease a
// second time with inflated counters — and requires identical merged stats:
// the done-set dedup must drop the duplicates, keeping Leaves (and every
// other counter) exactly-once and monotone.
func TestDuplicateCompletionsCreditOnce(t *testing.T) {
	req := treeRequest(t, "dedup", 5, 10, 60)

	drive := func(jobID string, duplicate bool) *svto.Result {
		coord, url := newCluster(t, Config{MaxLeaseTasks: 3})
		wait := runCluster(t, coord, jobID, req, RunOptions{})
		cl := testClient(url)
		if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "manual", Workers: 1}, nil); err != nil {
			t.Fatal(err)
		}
		info := waitJob(t, cl, "manual")
		for {
			var lr LeaseReply
			status, err := cl.postStatus(context.Background(), "/lease",
				LeaseRequest{Shard: "manual", JobID: info.JobID}, &lr)
			if status == http.StatusNotFound || lr.Done {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if lr.Wait {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			// Fabricated per-task counters: 1 leaf and 10 gate trials per
			// task, so the expected totals are exact.
			creq := CompleteRequest{
				Shard:   "manual",
				JobID:   info.JobID,
				LeaseID: lr.LeaseID,
				Stats: core.Counters{
					Leaves:     int64(len(lr.Tasks)),
					GateTrials: 10 * int64(len(lr.Tasks)),
				},
				LeavesUsed: int64(len(lr.Tasks)),
			}
			if err := cl.post(context.Background(), "/complete", creq, nil); err != nil {
				t.Fatal(err)
			}
			if duplicate {
				dup := creq
				dup.Stats.Leaves = 999
				dup.Stats.GateTrials = 999
				dup.LeavesUsed = 999
				if _, err := cl.postStatus(context.Background(), "/complete", dup, nil); err != nil {
					// The run may already have finished and been torn down;
					// a 404 here is the expected race, anything else is not.
					if !strings.Contains(err.Error(), "404") {
						t.Fatal(err)
					}
				}
			}
		}
		return wait()
	}

	once := drive("dedup-once", false)
	twice := drive("dedup-twice", true)
	if once.Stats.Leaves != twice.Stats.Leaves || once.Stats.GateTrials != twice.Stats.GateTrials ||
		once.Stats.StateNodes != twice.Stats.StateNodes {
		t.Errorf("duplicate completions changed the merged counters: (%d leaves, %d trials, %d nodes) vs (%d, %d, %d)",
			once.Stats.Leaves, once.Stats.GateTrials, once.Stats.StateNodes,
			twice.Stats.Leaves, twice.Stats.GateTrials, twice.Stats.StateNodes)
	}
	if once.LeakNA != twice.LeakNA {
		t.Errorf("incumbent differs: %.6f vs %.6f", once.LeakNA, twice.LeakNA)
	}
}

// TestClusterInterruptsOnLeafBudgetAndResumes: a leaf budget interrupts the
// distributed run and leaves a snapshot; resuming (without the budget)
// completes the search and must reproduce the uninterrupted local CSV,
// removing the snapshot on the way out.
func TestClusterInterruptsOnLeafBudgetAndResumes(t *testing.T) {
	full := treeRequest(t, "budget", 5, 10, 60)
	ref := localRun(t, full)
	refCSV, _ := renderArtifacts(t, ref)

	budgeted := full
	budgeted.Search.MaxLeaves = 3
	ck := filepath.Join(t.TempDir(), "cluster.ckpt")

	coord, url := newCluster(t, Config{MaxLeaseTasks: 2, Tick: 25 * time.Millisecond})
	startShard(t, url, "s1", 1)

	res1 := runCluster(t, coord, "budget-1", budgeted, RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour},
	})()
	if !res1.Interrupted {
		t.Fatal("3-leaf budget did not interrupt the cluster run")
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("interrupted run left no snapshot: %v", err)
	}

	res2 := runCluster(t, coord, "budget-2", full, RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour, Resume: true},
	})()
	if !res2.Resumed {
		t.Error("resumed run does not carry Resumed provenance")
	}
	if res2.Interrupted {
		t.Error("resumed run reported Interrupted")
	}
	gotCSV, _ := renderArtifacts(t, res2)
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("resumed CSV differs from uninterrupted local run (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Errorf("completed run left its snapshot behind: %v", err)
	}
}

// TestBudgetStopKeepsWorkInEveryMode: a leaf-budget stop keeps the counters
// of every leaf it evaluated, whether the stopped task's remainder is
// dropped (a plain local run), written to a snapshot (a checkpointed local
// run) or handed back to the coordinator (a 1-shard cluster run).  All
// three explore the same 300 leaves of c432 at 5% with one worker.  The
// handed-on runs split the tree at depth 6, and their frontier expansion
// counts all 63 state nodes above that depth, of which the plain run's
// depth-first walk had entered the 6 on its path when the budget ran out.
func TestBudgetStopKeepsWorkInEveryMode(t *testing.T) {
	req := svto.Request{
		Design: svto.DesignSpec{Benchmark: "c432"},
		Search: svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.05, Workers: 1, MaxLeaves: 300},
	}
	plain, err := svto.Run(context.Background(), req, svto.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ckOpts := svto.RunOptions{Checkpoint: svto.Checkpoint{Path: filepath.Join(t.TempDir(), "local.ckpt"), Interval: time.Hour}}
	checkpointed, err := svto.Run(context.Background(), req, ckOpts)
	if err != nil {
		t.Fatal(err)
	}
	coord, url := newCluster(t, Config{})
	startShard(t, url, "s1", 1)
	cluster := runCluster(t, coord, "budget-modes", req, RunOptions{})()

	for _, tc := range []struct {
		mode       string
		res        *svto.Result
		stateNodes int64
	}{
		{"local", plain, 368},
		{"local with a checkpoint", checkpointed, 368 + 63 - 6},
		{"1-shard cluster", cluster, 368 + 63 - 6},
	} {
		if !tc.res.Interrupted {
			t.Errorf("%s: the budget did not stop the run", tc.mode)
		}
		if got := math.Float64bits(tc.res.LeakNA); got != 0x40a963f094c15aae {
			t.Errorf("%s: leak %.9f (bits %016x), want bits 40a963f094c15aae", tc.mode, tc.res.LeakNA, got)
		}
		st := tc.res.Stats
		if st.Leaves != 301 || st.StateNodes != tc.stateNodes || st.GateTrials != 62350 {
			t.Errorf("%s: %d leaves, %d state nodes, %d gate trials; want 301, %d, 62350",
				tc.mode, st.Leaves, st.StateNodes, st.GateTrials, tc.stateNodes)
		}
	}
}

// TestClusterResumesLocalSnapshot is the cross-mode half of the checkpoint
// contract: a snapshot written by an interrupted LOCAL run resumes on the
// cluster (shared fingerprint, shared task encoding) and completes to the
// same CSV an uninterrupted local run produces.
func TestClusterResumesLocalSnapshot(t *testing.T) {
	full := treeRequest(t, "xmode", 5, 10, 60)
	ref := localRun(t, full)
	refCSV, _ := renderArtifacts(t, ref)

	budgeted := full
	budgeted.Search.MaxLeaves = 3
	ck := filepath.Join(t.TempDir(), "xmode.ckpt")
	res1, err := svto.Run(context.Background(), budgeted, svto.RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Interrupted {
		t.Fatal("budgeted local run did not interrupt")
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("interrupted local run left no snapshot: %v", err)
	}

	coord, url := newCluster(t, Config{MaxLeaseTasks: 2})
	startShard(t, url, "s1", 1)
	res2 := runCluster(t, coord, "xmode", full, RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour, Resume: true},
	})()
	if !res2.Resumed || res2.Interrupted {
		t.Errorf("cluster resume: Resumed %v Interrupted %v", res2.Resumed, res2.Interrupted)
	}
	gotCSV, _ := renderArtifacts(t, res2)
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("cross-mode resumed CSV differs from local run (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
}

// failRemoveFS is the real filesystem except that every Remove fails.
type failRemoveFS struct{ checkpoint.FS }

func (failRemoveFS) Remove(string) error { return errors.New("injected remove error") }

// TestClusterCountsFailedSnapshotRemoval: a cluster job that completes but
// cannot remove its snapshot counts the failure in CheckpointErrors, as the
// local engine does — both run the one search lifecycle.
func TestClusterCountsFailedSnapshotRemoval(t *testing.T) {
	req := treeRequest(t, "rmfail", 5, 10, 60)
	coord, url := newCluster(t, Config{MaxLeaseTasks: 3, FS: failRemoveFS{checkpoint.OS}})
	startShard(t, url, "s1", 1)
	res := runCluster(t, coord, "rmfail", req, RunOptions{
		Checkpoint: svto.Checkpoint{Path: filepath.Join(t.TempDir(), "rmfail.ckpt"), Interval: time.Hour},
	})()
	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if res.Stats.CheckpointErrors != 1 {
		t.Errorf("CheckpointErrors = %d, want 1 (the failed removal)", res.Stats.CheckpointErrors)
	}
}

// TestCoordinatorRejectsInvalidOptions: a distributed run validates its
// options like a local one, failing fast instead of waiting for shards.
func TestCoordinatorRejectsInvalidOptions(t *testing.T) {
	req := treeRequest(t, "badopts", 5, 10, 60)
	req.Search.MaxLeaves = -1
	coord, _ := newCluster(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_, err := coord.Run(ctx, "badopts", req, RunOptions{})
	if !errors.Is(err, core.ErrInvalidOptions) {
		t.Fatalf("Run with MaxLeaves -1 returned %v, want ErrInvalidOptions", err)
	}
	if ctx.Err() != nil {
		t.Error("Run blocked until its context ended")
	}
}

// TestFingerprintMismatchRefusesResume: a snapshot from a different search
// space must be rejected with ErrCheckpointMismatch, not silently explored.
func TestFingerprintMismatchRefusesResume(t *testing.T) {
	reqA := treeRequest(t, "fpa", 5, 10, 60)
	reqB := treeRequest(t, "fpb", 6, 10, 60)
	ck := filepath.Join(t.TempDir(), "fp.ckpt")

	budgeted := reqA
	budgeted.Search.MaxLeaves = 3
	if _, err := svto.Run(context.Background(), budgeted, svto.RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}

	coord, _ := newCluster(t, Config{})
	_, err := coord.Run(context.Background(), "fp", reqB, RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour, Resume: true},
	})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("mismatched snapshot accepted: %v", err)
	}
}

// TestCoordinatorRejectsDuplicateJob: one job id may only run once at a
// time.
func TestCoordinatorRejectsDuplicateJob(t *testing.T) {
	req := treeRequest(t, "dupjob", 5, 10, 60)
	coord, url := newCluster(t, Config{})
	wait := runCluster(t, coord, "dup", req, RunOptions{})
	cl := testClient(url)
	if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "manual", Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}
	waitJob(t, cl, "manual")

	if _, err := coord.Run(context.Background(), "dup", req, RunOptions{}); err == nil {
		t.Error("duplicate job id accepted")
	}

	startShard(t, url, "s1", 1)
	wait()
}

// TestTaskCodecRoundTrip covers the wire task encoding edge cases.
func TestTaskCodecRoundTrip(t *testing.T) {
	req := treeRequest(t, "codec", 5, 8, 40)
	base, err := svto.NewBaseline(req.Library)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := svto.Compile(req, base)
	if err != nil {
		t.Fatal(err)
	}
	p := comp.Prob
	n := len(p.CC.PI)

	if _, err := p.TaskFromBytes(make([]byte, n-1), n); err == nil {
		t.Error("short task accepted")
	}
	bad := make([]byte, n)
	bad[0] = 7
	if _, err := p.TaskFromBytes(bad, n); err == nil {
		t.Error("out-of-range task value accepted")
	}
	root := bytes.Repeat([]byte{2}, n)
	if _, err := p.TaskFromBytes(root, 0); err != nil {
		t.Errorf("root task rejected: %v", err)
	}
	if _, err := p.TaskFromBytes(root, n); err == nil {
		t.Error("task with an unassigned prefix accepted")
	}
	// A task assigns a prefix of the search order, at least the split depth
	// deep: of the vectors assigning one input, only the first input of the
	// search order's is a task, and a fully assigned one is a task at any
	// split depth (a stopped task's remainder lies deeper than the split).
	accepted := 0
	for i := 0; i < n; i++ {
		one := bytes.Repeat([]byte{2}, n)
		one[i] = 1
		if _, err := p.TaskFromBytes(one, 0); err == nil {
			accepted++
		}
	}
	if accepted != 1 {
		t.Errorf("%d single-input vectors accepted as tasks, want 1", accepted)
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i % 2)
	}
	if _, err := p.TaskFromBytes(v, 0); err != nil {
		t.Errorf("task deeper than its split depth rejected: %v", err)
	}
	task, err := p.TaskFromBytes(v, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := core.TaskBytes(task); !bytes.Equal(got, v) {
		t.Errorf("round trip %v != %v", got, v)
	}
}

// TestShardStatusReflectsLiveness: /v1/stats-facing introspection.
func TestShardStatusReflectsLiveness(t *testing.T) {
	coord, url := newCluster(t, Config{LeaseTTL: 100 * time.Millisecond})
	if coord.Ready() {
		t.Error("coordinator with no shards reports Ready")
	}
	cl := testClient(url)
	if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "a", Workers: 3}, nil); err != nil {
		t.Fatal(err)
	}
	if !coord.Ready() {
		t.Error("coordinator with a fresh shard not Ready")
	}
	st := coord.Shards()
	if len(st) != 1 || st[0].Name != "a" || st[0].Workers != 3 || !st[0].Live {
		t.Errorf("shard status = %+v", st)
	}
	time.Sleep(150 * time.Millisecond)
	if coord.Ready() {
		t.Error("coordinator still Ready after the TTL with no contact")
	}
	if st := coord.Shards(); len(st) != 1 || st[0].Live {
		t.Errorf("stale shard status = %+v", st)
	}
	if jobs := coord.RunningJobs(); len(jobs) != 0 {
		t.Errorf("idle coordinator lists running jobs: %v", jobs)
	}
}
