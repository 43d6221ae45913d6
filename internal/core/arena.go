package core

import (
	"sort"

	"svto/internal/library"
	"svto/internal/sim"
	"svto/internal/sta"
)

// leafArena is the reusable scratch storage of one leaf evaluation: the
// gate-tree descents run thousands of times per search, and every buffer
// they need — the simulated net values, the per-gate input states, the
// gain-ordered gate permutation, the exact descent's suffix bounds and
// partial assignment, the assembled choice vector, and a timing state for
// the final from-scratch re-analysis — is allocated once per worker and
// reused, so the steady-state leaf path allocates nothing.
type leafArena struct {
	state   []bool            // PI vector scratch
	netVals []uint64          // 2-valued simulation words (lane 0), by net id
	gateSt  []uint            // per-gate input state under the leaf's PI vector
	order   []int32           // gate visit order (gain-descending)
	gains   []float64         // per-gate ordering key for the current leaf
	suffix  []float64         // exact descent: remaining-gates objective bounds
	chosen  []*library.Choice // exact descent: partial assignment by position
	choices []*library.Choice // assembled complete assignment
	analyze *sta.State        // scratch for the final full re-analysis
	sorter  gainSorter
}

// newLeafArena sizes every buffer for the problem; base is a quiescent
// timing state of the same Timer cloned for the re-analysis scratch.
func (p *Problem) newLeafArena(base *sta.State) *leafArena {
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
		analyze: base.Clone(),
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
// final delay is a full from-scratch re-analysis (bit-for-bit the value
// Timer.Analyze reports), run on the arena's scratch timing state.
func (p *Problem) evalStateArena(st *sta.State, a *leafArena, budget float64, stats *Counters) (leak, isub, delay float64, err error) {
	if err = p.assignGatesArena(st, a, budget, stats); err != nil {
		return 0, 0, 0, err
	}
	leak, isub = leakOf(a.choices)
	a.analyze.Reanalyze(a.choices)
	delay = a.analyze.Delay()
	stats.Leaves++
	return leak, isub, delay, nil
}

// assignGatesArena performs the paper's greedy single descent of the gate
// tree: gates visited in order of decreasing potential saving, each taking
// its lowest-objective choice that keeps the circuit delay within budget
// (with all unassigned gates at their fastest version), verified by
// incremental STA.  The provided timing state must hold the all-fast
// assignment; it is consumed by the descent.  Candidate ranking and gate
// ordering come from the problem's precomputed tables; the result is
// written to a.choices.
func (p *Problem) assignGatesArena(st *sta.State, a *leafArena, budget float64, stats *Counters) error {
	p.rankGates(a)

	// Shadow assignment for the full-STA ablation.
	var shadow []*library.Choice
	if p.Ablate.FullSTA {
		shadow = p.Timer.FastChoices()
	}
	feasible := func(gi int, ch *library.Choice) (bool, error) {
		if ch.Version.MaxFactor <= 1 {
			// No delay degradation: always feasible.
			st.SetChoice(gi, ch)
			if shadow != nil {
				shadow[gi] = ch
			}
			return true, nil
		}
		if p.Ablate.FullSTA {
			prev := shadow[gi]
			shadow[gi] = ch
			d, err := p.Timer.Analyze(shadow)
			if err != nil {
				return false, err
			}
			if d > budget+DelayEps {
				shadow[gi] = prev
				return false, nil
			}
			st.SetChoice(gi, ch)
			return true, nil
		}
		current := st.Choice(gi)
		st.SetChoice(gi, ch)
		if st.Delay() <= budget+DelayEps {
			return true, nil
		}
		st.SetChoice(gi, current) // revert
		return false, nil
	}

	for _, gi32 := range a.order {
		gi := int(gi32)
		s := a.gateSt[gi]
		choices := p.Timer.Cells[gi].Choices[s]
		// Candidate order: ascending objective, precomputed per
		// (gate, state) in rankTab.
		ranks := p.rankTab[gi][s]
		if p.Ablate.NoSortedVersions {
			// Without pre-sorted edges every candidate must be tried;
			// keep the best feasible one.
			var best *library.Choice
			for _, ci := range ranks {
				ch := &choices[ci]
				stats.GateTrials++
				ok, err := feasible(gi, ch)
				if err != nil {
					return err
				}
				if ok && (best == nil || p.objOf(ch) < p.objOf(best)) {
					best = ch
				}
			}
			if best != nil {
				st.SetChoice(gi, best)
				if shadow != nil {
					shadow[gi] = best
				}
			}
			continue
		}
		for _, ci := range ranks {
			ch := &choices[ci]
			stats.GateTrials++
			ok, err := feasible(gi, ch)
			if err != nil {
				return err
			}
			if ok {
				break
			}
		}
	}
	for gi := range a.choices {
		a.choices[gi] = st.Choice(gi)
	}
	return nil
}
