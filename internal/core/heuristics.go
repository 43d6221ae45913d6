package core

import (
	"svto/internal/library"
	"svto/internal/sim"
)

// heuristic1 is the implementation behind AlgHeuristic1 and the incumbent
// seeding of the tree searches.  Stats.Runtime is stamped by Solve.
func (p *Problem) heuristic1(budget float64) (*Solution, error) {
	var stats Counters
	// Coarse seed engine, not the searches' pattern-min one: greedy
	// guidance and pruning want different bounds (see seedBoundEngine).
	eng, err := p.seedBoundEngine()
	if err != nil {
		return nil, err
	}
	state := p.greedyState(&stats, eng)
	sol, err := p.evalState(state, budget, &stats)
	if err != nil {
		return nil, err
	}
	sol.Stats.Counters = stats
	return sol, nil
}

// greedyState performs one bound-guided descent of the state tree: each
// input takes the branch with the lower partial-state bound, and eng is
// left holding the chosen vector.  A nil engine means bounds are disabled:
// every input defaults to the 0 branch, matching the all-zero-bound
// behavior of the NoStateBounds ablation.
func (p *Problem) greedyState(stats *Counters, eng *sim.Inc3) []bool {
	out := make([]bool, len(p.CC.PI))
	for _, idx := range p.piOrder {
		stats.StateNodes++
		v := probeBranches(eng, idx)[0].v
		if eng != nil {
			eng.Assign(idx, v)
		}
		out[idx] = v == sim.True
	}
	return out
}

// stateOnly is the implementation behind AlgStateOnly.
func (p *Problem) stateOnly() (*Solution, error) {
	var stats Counters
	// Same engine, different contribution table: the bound uses the
	// fast-version leakage instead of the best choice, since no Vt or Tox
	// assignment is available to this baseline.
	eng, err := p.fastBoundEngine()
	if err != nil {
		return nil, err
	}
	state := p.greedyState(&stats, eng)
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
