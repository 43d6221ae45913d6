package core

import (
	"svto/internal/library"
	"svto/internal/sim"
)

// heuristic1 is the implementation behind AlgHeuristic1 and the incumbent
// seeding of the tree searches.  Stats.Runtime is stamped by Solve.
func (p *Problem) heuristic1(budget float64) (*Solution, error) {
	var stats Counters
	// Coarse seed engines, not the searches' pattern-min ones: greedy
	// guidance and pruning want different bounds (see seedBoundEngine).
	bat, err := p.seedBatchEngine()
	if err != nil {
		return nil, err
	}
	var eng *sim.Inc3
	if bat == nil {
		eng, err = p.seedBoundEngine()
		if err != nil {
			return nil, err
		}
	}
	state := p.greedyState(&stats, eng, bat)
	sol, err := p.evalState(state, budget, &stats)
	if err != nil {
		return nil, err
	}
	sol.Stats.Counters = stats
	return sol, nil
}

// greedyState performs one bound-guided descent of the state tree (each
// input takes the branch with the lower partial-state bound).  With a batch
// engine both branch bounds of a step come from lanes 0/1 of a single
// two-lane sweep; with the incremental engine (NoBatchEval) each branch is
// probed separately — the bound values, and therefore the chosen state, are
// bit-identical either way.  Both engines nil means bounds are disabled:
// every input defaults to the 0 branch, matching the all-zero-bound
// behavior of the NoStateBounds ablation.
func (p *Problem) greedyState(stats *Counters, eng *sim.Inc3, bat *sim.Batch3) []bool {
	pi := make([]sim.Value, len(p.CC.PI))
	for i := range pi {
		pi[i] = sim.X
	}
	var bp *batchProber
	if bat != nil {
		bp = newBatchProber(p, bat, pi, stats)
	}
	for _, idx := range p.piOrder {
		stats.StateNodes++
		if bp != nil {
			b0, b1 := bp.pairBounds(idx)
			if b0 <= b1 {
				pi[idx] = sim.False
			} else {
				pi[idx] = sim.True
			}
			continue
		}
		if eng == nil {
			pi[idx] = sim.False
			continue
		}
		eng.Assign(idx, sim.False)
		b0 := eng.Bound()
		eng.Undo()
		eng.Assign(idx, sim.True)
		b1 := eng.Bound()
		if b0 <= b1 {
			eng.Undo()
			eng.Assign(idx, sim.False)
			pi[idx] = sim.False
		} else {
			pi[idx] = sim.True
		}
	}
	if eng != nil {
		// Leave the engine back at the all-X root so it can be reused.
		for range p.piOrder {
			eng.Undo()
		}
	}
	out := make([]bool, len(pi))
	for i, v := range pi {
		out[i] = v == sim.True
	}
	return out
}

// stateOnly is the implementation behind AlgStateOnly.
func (p *Problem) stateOnly() (*Solution, error) {
	var stats Counters
	// Same engines, different contribution table: the bound uses the
	// fast-version leakage instead of the best choice, since no Vt or Tox
	// assignment is available to this baseline.
	bat, err := p.fastBatchEngine()
	if err != nil {
		return nil, err
	}
	var eng *sim.Inc3
	if bat == nil {
		eng, err = p.fastBoundEngine()
		if err != nil {
			return nil, err
		}
	}
	state := p.greedyState(&stats, eng, bat)
	states, err := p.gateStates(state)
	if err != nil {
		return nil, err
	}
	choices := make([]*library.Choice, len(p.CC.Gates))
	for gi, s := range states {
		choices[gi] = p.fastTab[gi][s]
	}
	leak, isub := leakOf(choices)
	delay, err := p.Timer.Analyze(choices)
	if err != nil {
		return nil, err
	}
	stats.Leaves = 1
	return &Solution{
		State:   state,
		Choices: choices,
		Leak:    leak,
		Isub:    isub,
		Delay:   delay,
		Stats:   SearchStats{Counters: stats},
	}, nil
}
