package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/sim"
)

// CheckpointOptions configures crash-safe snapshotting of a tree search.
// When Path is set, the running search periodically serializes its frontier,
// incumbent and counters to Path (atomically: temp file + fsync + rename),
// writes a final snapshot if it is interrupted, and removes the file when it
// runs to completion.  The snapshot's frontier is the pool's unexplored
// subtree tasks.
type CheckpointOptions struct {
	// Path is the snapshot file.
	Path string
	// Interval is the periodic snapshot cadence; required when Path is
	// set.  Snapshot writes are cheap (the frontier is a few KB), but each
	// one re-serializes the incumbent, so sub-millisecond intervals only
	// make sense in tests.
	Interval time.Duration
	// Resume loads Path before searching and continues from it: the
	// incumbent is re-seeded, counters and the MaxLeaves/TimeLimit budgets
	// continue rather than reset, and workers restart from the saved
	// frontier.  A missing file is not an error (the run starts fresh); a
	// snapshot from a different circuit, library or objective fails with
	// ErrCheckpointMismatch.
	Resume bool
	// FS overrides the filesystem used for snapshot I/O (fault injection
	// in tests); nil uses the real one.
	FS checkpoint.FS
}

func (c CheckpointOptions) fs() checkpoint.FS {
	if c.FS != nil {
		return c.FS
	}
	return checkpoint.OS
}

// ckSplitDepth is the minimum auto-picked frontier depth when checkpointing
// is on: finer tasks bound the work lost to re-running the tasks that were
// in flight when the process died.
const ckSplitDepth = 6

// fingerprint hashes everything that defines the search space and objective
// of a Solve call — circuit structure, resolved cells and their choice-list
// shapes, algorithm, penalty, objective and ablations — so a resume against
// a different problem is rejected instead of silently exploring garbage.
// Execution knobs that do not change what a snapshot means (Workers,
// SplitDepth, TimeLimit, MaxLeaves, Seed, progress/checkpoint settings) are
// deliberately excluded: it is valid to resume with more workers or a
// larger budget.
func (p *Problem) fingerprint(opt Options) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	cc := p.CC
	wu(uint64(len(cc.PI)))
	for _, net := range cc.PI {
		wu(uint64(net))
	}
	wu(uint64(len(cc.Gates)))
	for i := range cc.Gates {
		g := &cc.Gates[i]
		wu(uint64(g.Op))
		wu(uint64(g.Out))
		wu(uint64(len(g.In)))
		for _, in := range g.In {
			wu(uint64(in))
		}
	}
	for _, c := range p.Timer.Cells {
		ws(c.Template.Name)
		wu(uint64(len(c.Versions)))
		wu(uint64(len(c.Choices)))
		for s := range c.Choices {
			wu(uint64(len(c.Choices[s])))
		}
	}
	wu(uint64(p.Obj))
	wu(uint64(opt.Algorithm))
	wu(math.Float64bits(opt.Penalty))
	var ab uint64
	if p.Ablate.NoStateBounds {
		ab |= 1
	}
	if p.Ablate.FullSTA {
		ab |= 2
	}
	if p.Ablate.NoSortedVersions {
		ab |= 4
	}
	// Bits 8, 16 and 64 belonged to retired ablations; the live bits keep
	// their values so fingerprints stay stable.
	if p.Ablate.NoRelaxBound {
		ab |= 32
	}
	wu(ab)
	return h.Sum64()
}

// ResumedSearch is the durable state of a tree search in search terms:
// what a snapshot records, with the incumbent re-resolved against this
// process's library.  LoadSearch returns it to every resuming caller — a
// local Solve and the cluster coordinator alike — and BuildSnapshot turns
// the same shape back into a snapshot.
type ResumedSearch struct {
	// Seed is the incumbent.
	Seed *Solution
	// Tasks is the unexplored frontier: in-flight tasks count as
	// unexplored, since the incumbent is monotone and re-exploring them can
	// only re-derive or improve the result, never regress it.
	Tasks [][]sim.Value
	// SplitDepth is the depth the frontier was expanded at.
	SplitDepth int
	// Elapsed and LeavesUsed are the wall clock and leaf-budget tickets
	// spent so far, so budgets continue rather than reset.
	Elapsed    time.Duration
	LeavesUsed int64
	// Stats are the aggregated counters (partial in-flight task work
	// already rolled back).
	Stats Counters
	// Failures carries over recorded worker deaths.
	Failures []WorkerFailure
}

// LoadSearch reads the snapshot at path and validates it against the
// search (p, opt): fingerprint, incumbent, split depth and frontier tasks.
// A missing file returns (nil, nil): there is nothing to resume and the run
// starts fresh, which is what makes "-resume" safe to pass unconditionally.
// Any disagreement fails with ErrCheckpointMismatch.
func (p *Problem) LoadSearch(fs checkpoint.FS, path string, opt Options) (*ResumedSearch, error) {
	snap, err := checkpoint.Load(fs, path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	mismatch := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrCheckpointMismatch, fmt.Sprintf(format, args...))
	}
	if want := p.fingerprint(opt); snap.Fingerprint != want {
		return nil, mismatch("snapshot fingerprint %016x, problem fingerprint %016x (different circuit, library or options)",
			snap.Fingerprint, want)
	}
	seed, err := p.ResolveIncumbent(snap.Incumbent)
	if err != nil {
		return nil, mismatch("%v", err)
	}
	rs := &ResumedSearch{
		Seed:       seed,
		SplitDepth: snap.SplitDepth,
		Elapsed:    snap.Elapsed,
		LeavesUsed: snap.LeavesUsed,
		Stats:      snap.Stats,
	}
	if rs.SplitDepth < 0 || rs.SplitDepth > len(p.piOrder) {
		return nil, mismatch("split depth %d out of range (%d inputs)", rs.SplitDepth, len(p.piOrder))
	}
	for _, f := range snap.Failures {
		rs.Failures = append(rs.Failures, WorkerFailure{Worker: int(f.Worker), Err: f.Err, Stack: f.Stack})
	}
	for ti, vec := range snap.Frontier {
		task, err := p.TaskFromBytes(vec, rs.SplitDepth)
		if err != nil {
			return nil, mismatch("frontier task %d: %v", ti, err)
		}
		rs.Tasks = append(rs.Tasks, task)
	}
	return rs, nil
}

// BuildSnapshot encodes st as the snapshot of the search fingerprinted
// fprint (see SearchFingerprint).
func (p *Problem) BuildSnapshot(fprint uint64, st *ResumedSearch) (*checkpoint.Snapshot, error) {
	inc, err := p.EncodeIncumbent(st.Seed)
	if err != nil {
		return nil, err
	}
	snap := &checkpoint.Snapshot{
		Fingerprint: fprint,
		Elapsed:     st.Elapsed,
		SplitDepth:  st.SplitDepth,
		LeavesUsed:  st.LeavesUsed,
		Stats:       st.Stats,
		Incumbent:   inc,
	}
	for _, f := range st.Failures {
		snap.Failures = append(snap.Failures, checkpoint.WorkerFailure{Worker: int32(f.Worker), Err: f.Err, Stack: f.Stack})
	}
	for _, t := range st.Tasks {
		snap.Frontier = append(snap.Frontier, TaskBytes(t))
	}
	return snap, nil
}

// EncodeIncumbent serializes a solution into the pointer-free form
// snapshots and the cluster wire protocol carry: the sleep state plus
// (state, index) choice coordinates instead of pointers.
func (p *Problem) EncodeIncumbent(sol *Solution) (*checkpoint.Incumbent, error) {
	coords, err := p.Timer.ChoiceCoords(sol.Choices)
	if err != nil {
		return nil, err
	}
	return &checkpoint.Incumbent{
		State:   append([]bool(nil), sol.State...),
		Choices: coords,
		Leak:    sol.Leak,
		Isub:    sol.Isub,
		Delay:   sol.Delay,
	}, nil
}

// ResolveIncumbent is the inverse of EncodeIncumbent: it re-resolves the
// coordinates into this process's choice pointers and cross-checks the
// recorded leakage against the re-resolved choices as an end-to-end
// integrity check, rejecting an incumbent that does not describe this
// problem.
func (p *Problem) ResolveIncumbent(inc *checkpoint.Incumbent) (*Solution, error) {
	if inc == nil {
		return nil, fmt.Errorf("core: no incumbent")
	}
	if len(inc.State) != len(p.CC.PI) {
		return nil, fmt.Errorf("core: incumbent has %d input values, circuit has %d inputs", len(inc.State), len(p.CC.PI))
	}
	choices, err := p.Timer.ChoicesAt(inc.Choices)
	if err != nil {
		return nil, err
	}
	leak, isub := leakOf(choices)
	// Negated comparisons so a NaN in the recorded values is rejected too.
	if !(math.Abs(leak-inc.Leak) <= 1e-6) || !(math.Abs(isub-inc.Isub) <= 1e-6) {
		return nil, fmt.Errorf("core: incumbent leakage %.9g/%.9g disagrees with re-resolved choices %.9g/%.9g",
			inc.Leak, inc.Isub, leak, isub)
	}
	return &Solution{
		State:   append([]bool(nil), inc.State...),
		Choices: choices,
		Leak:    inc.Leak,
		Isub:    inc.Isub,
		Delay:   inc.Delay,
	}, nil
}

// TaskBytes encodes a subtree task in the snapshot and wire form: one byte
// per primary input, 0 = forced false, 1 = forced true, 2 = unassigned.
func TaskBytes(t []sim.Value) []byte {
	b := make([]byte, len(t))
	for i, v := range t {
		b[i] = byte(v)
	}
	return b
}

// TaskFromBytes is the inverse of TaskBytes for a task expanded at split
// depth depth, validated like every task the search accepts (checkTask).
func (p *Problem) TaskFromBytes(b []byte, depth int) ([]sim.Value, error) {
	t := make([]sim.Value, len(b))
	for i, v := range b {
		t[i] = sim.Value(v)
	}
	return t, p.checkTask(t, depth)
}

// checkTask validates a subtree task expanded at split depth depth: one
// value per primary input, the first depth inputs of the search order
// forced to 0 or 1 and every other input unassigned.  Anything else is not
// a subtree the frontier expansion produces, and searching it would
// silently skip or repeat part of the tree.
func (p *Problem) checkTask(t []sim.Value, depth int) error {
	if len(t) != len(p.CC.PI) {
		return fmt.Errorf("task has %d values, circuit has %d inputs", len(t), len(p.CC.PI))
	}
	for d, i := range p.piOrder {
		if v := t[i]; (d < depth) != (v == sim.False || v == sim.True) || v > sim.X {
			return fmt.Errorf("input %d holds %d at search depth %d of a depth-%d task", i, v, d, depth)
		}
	}
	return nil
}

// writeCheckpoint serializes and atomically writes one snapshot of the
// running search.  Failures are recorded in the stats but never abort the
// search: losing a snapshot costs redo work after a crash, aborting would
// cost the whole run now.
func (sh *sharedSearch) writeCheckpoint(tp *taskPool) {
	sh.ckWrites.Add(1)
	snap, err := sh.p.BuildSnapshot(sh.fprint, &ResumedSearch{
		Seed:       sh.inc.Best(),
		Tasks:      tp.remaining(),
		SplitDepth: sh.splitDepth,
		Elapsed:    sh.priorElapsed + time.Since(sh.start),
		LeavesUsed: sh.leafTickets.Load(),
		Stats:      sh.counters.Load(),
		Failures:   sh.failuresCopy(),
	})
	if err == nil {
		err = checkpoint.Save(sh.ck.fs(), sh.ck.Path, snap)
	}
	if err != nil {
		sh.ckErrors.Add(1)
	}
}
