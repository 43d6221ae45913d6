// Package dist runs one branch-and-bound search across processes: a
// coordinator expands the root frontier into 3-valued subtree task vectors
// (the same unit the checkpoint format persists), leases task batches to
// worker shards over HTTP, steals work back from loaded shards when others
// drain, and merges incumbents monotonically so late, duplicate or crossing
// broadcasts are harmless.
//
// The split of responsibilities mirrors the in-process pool engine:
//
//   - the coordinator owns the task pool (pending/leased/done), the
//     aggregated counters, the leaf/time budgets and the checkpoint file —
//     exactly the state internal/core's taskPool plus sharedSearch own
//     locally;
//   - each shard owns nothing durable: it drains leased batches with
//     core.SolveTasks and reports the batch's counters plus its unfinished
//     remainder, so a shard dying mid-batch costs only a lease re-queue.
//
// The durable search state has one definition, shared with the local pool
// and the checkpoint file: counters are core.Counters (checkpoint.Stats),
// incumbents travel as checkpoint.Incumbent, task vectors use
// core.TaskBytes / Problem.TaskFromBytes, and snapshots are built by
// Problem.BuildSnapshot and read back by Problem.LoadSearch.
//
// Determinism contract: with one shard and Workers=1 the grant order is the
// frontier order, every batch continues from the previous batch's
// incumbent, and artifacts are built by the same svto.Compiled.BuildResult
// a local run uses — so a 1-shard cluster run is byte-identical to a local
// run (enforced by TestClusterOneShardMatchesLocal).
package dist

import (
	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/pkg/svto"
)

// APIPrefix is the path prefix of every cluster endpoint; Coordinator
// .Handler serves under it so the daemon can mount it next to /v1/jobs.
const APIPrefix = "/cluster/v1"

// RegisterRequest announces a shard to the coordinator.  Registration is
// idempotent and doubles as a liveness signal — any request from a shard
// refreshes its last-seen time, and a shard silent for longer than the
// lease TTL has its leased tasks re-queued.
type RegisterRequest struct {
	Shard   string `json:"shard"`
	Workers int    `json:"workers"` // search workers this shard contributes
	// Health carries the shard's transport-degradation counters, so a
	// re-registration after a coordinator restart delivers the shard's
	// history to the new incarnation.
	Health *ShardHealth `json:"health,omitempty"`
}

// JobInfo describes a job a shard should compile and join.  The shard
// re-derives the identical problem from Request and must verify its
// SearchFingerprint against Fingerprint before leasing tasks, so a version
// or library skew between processes is caught before any work is exchanged.
type JobInfo struct {
	JobID       string       `json:"job_id"`
	Request     svto.Request `json:"request"`
	SplitDepth  int          `json:"split_depth"`
	Fingerprint uint64       `json:"fingerprint"`
	// Workers is the per-shard worker cap from the request (0 = shard
	// decides from its own configuration).
	Workers int `json:"workers,omitempty"`
}

// LeaseRequest asks for a batch of tasks.
type LeaseRequest struct {
	Shard string `json:"shard"`
	JobID string `json:"job_id"`
}

// LeaseReply grants a batch (or tells the shard to wait / stop).  Tasks are
// frontier vectors in checkpoint byte encoding (core.TaskBytes): one byte
// per primary input, 0 = forced false, 1 = forced true, 2 = unassigned.
type LeaseReply struct {
	LeaseID int64    `json:"lease_id,omitempty"`
	TaskIDs []int64  `json:"task_ids,omitempty"`
	Tasks   [][]byte `json:"tasks,omitempty"`
	// MaxLeaves is the remaining leaf budget the batch must respect
	// (0 = unlimited).
	MaxLeaves int64                 `json:"max_leaves,omitempty"`
	Incumbent *checkpoint.Incumbent `json:"incumbent,omitempty"`
	Epoch     int64                 `json:"epoch,omitempty"`
	// Wait reports nothing to lease right now (all tasks leased elsewhere
	// and nothing stealable): poll again shortly.
	Wait bool `json:"wait,omitempty"`
	// Done reports the job has finished (or exhausted its budget): stop.
	Done bool `json:"done,omitempty"`
}

// CompleteRequest reports a drained (or interrupted) lease.  Remaining
// lists the task ids the shard did not finish — the coordinator re-queues
// them — and Stats covers exactly the finished ones: the engine's
// mark/rollback rule drops an unfinished task's counters, so the
// coordinator can sum completed batches without double counting re-queued
// work.  A completion for an
// already-expired lease is accepted but credited nothing except its
// incumbent: monotonicity makes the late merge harmless.
type CompleteRequest struct {
	Shard     string        `json:"shard"`
	JobID     string        `json:"job_id"`
	LeaseID   int64         `json:"lease_id"`
	Remaining []int64       `json:"remaining,omitempty"`
	Stats     core.Counters `json:"stats"`
	// LeavesUsed is the batch's leaf-budget tickets (core.TaskResult
	// .LeavesUsed): unlike Stats.Leaves it includes rolled-back work, and
	// the coordinator charges the leaf budget with it so interrupted
	// batches still make budget progress.
	LeavesUsed int64                 `json:"leaves_used,omitempty"`
	Incumbent  *checkpoint.Incumbent `json:"incumbent,omitempty"`
	// Failure carries a shard-side infrastructure error (e.g. all local
	// workers died); the coordinator records it as a worker failure.
	Failure string `json:"failure,omitempty"`
}

// SyncRequest is the combined heartbeat / incumbent-exchange message a
// shard sends every few hundred milliseconds while it works: it pushes the
// shard's incumbent when it improved and tells the coordinator the last
// epoch the shard has seen.
type SyncRequest struct {
	Shard     string                `json:"shard"`
	JobID     string                `json:"job_id"`
	Epoch     int64                 `json:"epoch"`
	Incumbent *checkpoint.Incumbent `json:"incumbent,omitempty"`
	// Health piggybacks the shard's transport-degradation counters on the
	// heartbeat, keeping /v1/stats current without a separate scrape.
	Health *ShardHealth `json:"health,omitempty"`
}

// SyncReply returns the coordinator's incumbent iff it is newer than the
// epoch the shard reported, so steady-state heartbeats carry no payload.
type SyncReply struct {
	Epoch     int64                 `json:"epoch"`
	Incumbent *checkpoint.Incumbent `json:"incumbent,omitempty"`
	Done      bool                  `json:"done,omitempty"`
}
