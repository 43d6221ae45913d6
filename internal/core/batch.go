package core

import (
	"svto/internal/sim"
)

// batchH is the height of one probe segment: the deepest swept level packs
// 2^batchH = 64 sibling probes, a full sim.Batch3 word.
const batchH = 6

// batchSeg is one live segment of the batched probe tree: the subtree of
// state-tree nodes rooted at depth base and extending batchH levels down,
// relative to the partial assignment the search held when the segment was
// pushed.  Level L (1-based) holds the admissible bounds of all 2^L
// assignments to piOrder[base..base+L-1]; levels are swept on first use, so
// a heavily-pruned descent never pays for lanes it does not visit.
type batchSeg struct {
	base  int
	lv    [batchH + 1][]float64
	swept [batchH + 1]bool
}

// batchProber replaces the Inc3 Assign/Bound/Undo probe pair of the
// state-tree descents with segment sweeps of a 64-lane batch simulator: one
// topological pass of sim.Batch3 retires up to 64 sibling probes that the
// incremental engine would evaluate one cone propagation at a time.
//
// Correctness rests on the Batch3 bit-identity contract: every lane bound
// equals what an Inc3 holding that lane's assignment would return, so branch
// ordering and pruning — and therefore the entire visit order and incumbent
// — are unchanged from the incremental path.  Only the BatchSweeps /
// BatchLanes counters distinguish the two.
//
// Segments are tied to the descent's recursion: the dfs level that pushes a
// segment pops it before returning, so re-entering the same depth under a
// different sibling prefix always sweeps fresh planes.  The prober reads the
// live partial assignment (pi) statelessly at each sweep; it keeps no
// assignment state of its own between sweeps.
type batchProber struct {
	p     *Problem
	bat   *sim.Batch3
	pi    []sim.Value // the search's live partial assignment (aliased)
	stats *Counters
	segs  []*batchSeg
	top   int // live segment count; segs[top:] are retired, reusable
}

func newBatchProber(p *Problem, bat *sim.Batch3, pi []sim.Value, stats *Counters) *batchProber {
	return &batchProber{p: p, bat: bat, pi: pi, stats: stats}
}

// push opens a fresh segment rooted at depth unless a live one already
// covers it, and reports whether the caller now owes a pop.  Descents call
// it on entering a depth and pop on the way out, which scopes each segment
// to exactly one subtree visit.
func (bp *batchProber) push(depth int) bool {
	if bp.top > 0 && depth < bp.segs[bp.top-1].base+batchH {
		return false
	}
	var s *batchSeg
	if bp.top < len(bp.segs) {
		s = bp.segs[bp.top]
	} else {
		s = &batchSeg{}
		bp.segs = append(bp.segs, s)
	}
	s.base = depth
	for i := range s.swept {
		s.swept[i] = false
	}
	bp.top++
	return true
}

func (bp *batchProber) pop() { bp.top-- }

// bounds returns the admissible bounds of extending the current partial
// assignment with piOrder[depth] = False and True — the same pair the
// incremental engine computes with two Assign/Bound/Undo probes.  The
// covering segment's level is swept on first use; the node's lane pair is
// addressed by the path bits from the segment base, read off pi (MSB
// first, so the children of level-L lane pb are level-L+1 lanes 2pb and
// 2pb+1).
func (bp *batchProber) bounds(depth int) (b0, b1 float64) {
	s := bp.segs[bp.top-1]
	r := depth - s.base
	level := r + 1
	if !s.swept[level] {
		bp.sweep(s, level)
	}
	pb := 0
	for j := 0; j < r; j++ {
		pb <<= 1
		if bp.pi[bp.p.piOrder[s.base+j]] == sim.True {
			pb |= 1
		}
	}
	return s.lv[level][2*pb], s.lv[level][2*pb+1]
}

// sweep evaluates one segment level: the shared prefix (every assigned
// input of pi) is broadcast to all lanes, the level's 2^level assignments
// to piOrder[base..base+level-1] diverge the lanes, and one Sweep retires
// them all.  Bounds are copied out because deeper (or sibling-segment)
// sweeps reuse the simulator's lane registers.
func (bp *batchProber) sweep(s *batchSeg, level int) {
	bat := bp.bat
	bat.Reset()
	for i, v := range bp.pi {
		if v != sim.X {
			bat.SetAll(i, v)
		}
	}
	lanes := 1 << uint(level)
	for j := 0; j < level; j++ {
		idx := bp.p.piOrder[s.base+j]
		shift := uint(level - 1 - j)
		for l := 0; l < lanes; l++ {
			bat.SetLane(idx, l, sim.Value(l>>shift&1))
		}
	}
	bat.Sweep(lanes)
	if s.lv[level] == nil {
		s.lv[level] = make([]float64, lanes)
	}
	for l := 0; l < lanes; l++ {
		s.lv[level][l] = bat.Bound(l)
	}
	s.swept[level] = true
	bp.stats.BatchSweeps++
	bp.stats.BatchLanes += int64(lanes)
}

// pairBounds is the two-lane special case for the greedy single descents:
// no segment tree, just both branches of one input in lanes 0/1 of a single
// sweep under the current prefix.
func (bp *batchProber) pairBounds(idx int) (b0, b1 float64) {
	bat := bp.bat
	bat.Reset()
	for i, v := range bp.pi {
		if v != sim.X {
			bat.SetAll(i, v)
		}
	}
	bat.SetLane(idx, 0, sim.False)
	bat.SetLane(idx, 1, sim.True)
	bat.Sweep(2)
	bp.stats.BatchSweeps++
	bp.stats.BatchLanes += 2
	return bat.Bound(0), bat.Bound(1)
}

// newBatchEngine builds the 64-lane batch bound engine over the problem's
// objective tables — the same contributions newBoundEngine gives Inc3.
// Returns nil when state bounds are ablated entirely (NoStateBounds) or the
// batched evaluator specifically is (NoBatchEval, which falls the searches
// back to the incremental engine).
func (p *Problem) newBatchEngine() (*sim.Batch3, error) {
	if p.Ablate.NoStateBounds || p.Ablate.NoBatchEval {
		return nil, nil
	}
	return sim.NewBatch3(p.CC, p.minChoice, p.minAny)
}

// seedBatchEngine is newBatchEngine in coarse mode: same objective tables,
// but any X fan-in contributes the row minimum instead of the pattern
// minimum.  Heuristic-1's greedy descent uses it (see seedBoundEngine).
func (p *Problem) seedBatchEngine() (*sim.Batch3, error) {
	if p.Ablate.NoStateBounds || p.Ablate.NoBatchEval {
		return nil, nil
	}
	return sim.NewBatch3Coarse(p.CC, p.minChoice, p.minAny)
}

// fastBatchEngine is newBatchEngine over the state-only baseline's
// fast-version tables (see fastBoundEngine).  Coarse for the same reason:
// the baseline's batch and incremental paths must agree bit for bit, and
// both must reproduce the classic state-only bound.
func (p *Problem) fastBatchEngine() (*sim.Batch3, error) {
	if p.Ablate.NoBatchEval {
		return nil, nil
	}
	known, unknown := p.fastTables()
	return sim.NewBatch3Coarse(p.CC, known, unknown)
}
