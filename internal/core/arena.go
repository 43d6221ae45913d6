package core

import (
	"sort"

	"svto/internal/library"
	"svto/internal/relax"
	"svto/internal/sim"
	"svto/internal/sta"
)

// leafArena is the reusable scratch storage of one leaf evaluation: the
// gate-tree descents run thousands of times per search, and every buffer
// they need — the simulated net values, the per-gate input states, the
// gain-ordered gate permutation, the exact descent's suffix bounds and
// partial assignment and the assembled choice vector — is allocated once
// per worker and reused, so the steady-state leaf path allocates nothing.
type leafArena struct {
	state   []bool            // PI vector scratch
	netVals []uint64          // 2-valued simulation words (lane 0), by net id
	gateSt  []uint            // per-gate input state under the leaf's PI vector
	order   []int32           // gate visit order (gain-descending)
	gains   []float64         // per-gate ordering key for the current leaf
	suffix  []float64         // exact descent: remaining-gates objective bounds
	chosen  []*library.Choice // exact descent: partial assignment by position
	choices []*library.Choice // assembled complete assignment
	sorter  gainSorter
}

// newLeafArena sizes every buffer for the problem.
func (p *Problem) newLeafArena() *leafArena {
	n := len(p.CC.Gates)
	a := &leafArena{
		state:   make([]bool, len(p.CC.PI)),
		netVals: make([]uint64, p.CC.NumNets()),
		gateSt:  make([]uint, n),
		order:   make([]int32, n),
		gains:   make([]float64, n),
		suffix:  make([]float64, n+1),
		chosen:  make([]*library.Choice, n),
		choices: make([]*library.Choice, n),
	}
	a.sorter = gainSorter{order: a.order, key: a.gains}
	return a
}

// gainSorter stable-sorts a gate permutation by descending gain key without
// the reflection and closure allocations of sort.SliceStable.  Stable
// sorting makes the result independent of the algorithm, so the permutation
// is identical to the one the previous per-leaf SliceStable produced.
type gainSorter struct {
	order []int32
	key   []float64
}

func (g *gainSorter) Len() int           { return len(g.order) }
func (g *gainSorter) Less(a, b int) bool { return g.key[g.order[a]] > g.key[g.order[b]] }
func (g *gainSorter) Swap(a, b int)      { g.order[a], g.order[b] = g.order[b], g.order[a] }

// rankGates fills a.order with all gates sorted by descending saving
// potential under the leaf's gate states — the paper's gate-tree visit
// order, shared by the greedy and exact descents.
func (p *Problem) rankGates(a *leafArena) {
	for gi := range a.gains {
		a.gains[gi] = p.gainTab[gi][a.gateSt[gi]]
		a.order[gi] = int32(gi)
	}
	sort.Stable(&a.sorter)
}

// gateStatesInto simulates the circuit under the PI vector and fills
// a.gateSt with each gate's input state, allocating nothing.
func (p *Problem) gateStatesInto(a *leafArena, state []bool) error {
	if err := sim.EvalInto(p.CC, state, a.netVals); err != nil {
		return err
	}
	for gi := range p.CC.Gates {
		a.gateSt[gi] = sim.GateState(&p.CC.Gates[gi], a.netVals, 0)
	}
	return nil
}

// evalStateArena runs the greedy gate-tree descent for a complete input
// state on the caller-provided all-fast timing state, leaving the chosen
// assignment in a.choices and returning (leak, isub, delay).  It is the
// allocation-free core of evalState and of the workers' greedyLeaf; the
// delay is the descent's own timing state's, bit for bit Timer.Analyze's.
func (p *Problem) evalStateArena(st *sta.State, a *leafArena, budget float64, rx *relax.Engine, stats *Counters) (leak, isub, delay float64) {
	p.assignGatesArena(st, a, budget, rx, stats)
	leak, isub = leakOf(a.choices)
	stats.Leaves++
	return leak, isub, st.Delay()
}

// candidates is rankTab[gi][s] less the prefix rx certifies infeasible
// (objective below Known: the delay check would reject it).  Timing is a
// pure function of the choices, so skipping those trials leaves the bits
// they would have left.  A nil rx skips nothing.
func (p *Problem) candidates(gi int, s uint, rx *relax.Engine) []int32 {
	ranks := p.rankTab[gi][s]
	for rx != nil && len(ranks) > 0 && p.objOf(&p.Timer.Cells[gi].Choices[s][ranks[0]]) < rx.Known[gi][s] {
		ranks = ranks[1:]
	}
	return ranks
}

// assignGatesArena performs the paper's greedy single descent of the gate
// tree: gates visited in order of decreasing potential saving, each taking
// its lowest-objective choice that keeps the circuit delay within budget
// (with all unassigned gates at their fastest version), verified by
// incremental STA.  The provided timing state must hold the all-fast
// assignment; it is consumed by the descent.  Candidate ranking and gate
// ordering come from the problem's precomputed tables (less rx's
// certified-infeasible choices); the result is written to a.choices.
func (p *Problem) assignGatesArena(st *sta.State, a *leafArena, budget float64, rx *relax.Engine, stats *Counters) {
	p.rankGates(a)
	for _, gi32 := range a.order {
		gi := int(gi32)
		s := a.gateSt[gi]
		choices := p.Timer.Cells[gi].Choices[s]
		current := st.Choice(gi)
		for _, ci := range p.candidates(gi, s, rx) {
			ch := &choices[ci]
			stats.GateTrials++
			st.SetChoice(gi, ch)
			// A version without delay degradation is always feasible.
			if ch.Version.MaxFactor <= 1 || st.Delay() <= budget+DelayEps {
				break
			}
			st.SetChoice(gi, current) // revert
		}
	}
	for gi := range a.choices {
		a.choices[gi] = st.Choice(gi)
	}
}
