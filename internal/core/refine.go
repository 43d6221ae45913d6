package core

import (
	"fmt"
	"sort"
	"time"

	"svto/internal/library"
)

// Refine is an extension beyond the paper's single gate-tree descent: it
// repeatedly revisits every gate of an existing solution and upgrades it to
// a lower-leakage choice whenever the *actual* current assignment (not the
// descent's remaining-at-fastest lower bound) still meets the delay budget.
// Slack released by one gate's placement frequently unlocks better choices
// for gates visited earlier, so a few passes typically shave a further few
// percent off heuristic 1's result at negligible cost.
func (p *Problem) Refine(sol *Solution, penalty float64, maxPasses int) (*Solution, error) {
	if maxPasses < 1 {
		return nil, fmt.Errorf("core: Refine needs at least one pass")
	}
	start := time.Now()
	budget := p.Budget(penalty)
	gateStates, err := p.gateStates(sol.State)
	if err != nil {
		return nil, err
	}
	state, err := p.Timer.NewState(sol.Choices)
	if err != nil {
		return nil, err
	}
	stats := sol.Stats

	// Visit gates by descending remaining saving potential.
	order := make([]int, len(p.CC.Gates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga := p.objOf(state.Choice(order[a])) - p.minChoice[order[a]][gateStates[order[a]]]
		gb := p.objOf(state.Choice(order[b])) - p.minChoice[order[b]][gateStates[order[b]]]
		return ga > gb
	})

	// Candidate ranks per gate come from the problem's precomputed
	// rankTab (ascending objective, the order the early exit below
	// assumes) — the same table every gate-tree descent uses.
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, gi := range order {
			cell := p.Timer.Cells[gi]
			choices := cell.Choices[gateStates[gi]]
			cur := state.Choice(gi)
			curObj := p.objOf(cur)
			for _, ci := range p.rankTab[gi][gateStates[gi]] {
				ch := &choices[ci]
				if p.objOf(ch) >= curObj {
					break // ranked ascending by objective: nothing better remains
				}
				stats.GateTrials++
				state.SetChoice(gi, ch)
				if ch.Version.MaxFactor <= 1 || state.Delay() <= budget+DelayEps {
					improved = true
					break
				}
				state.SetChoice(gi, cur)
			}
		}
		if !improved {
			break
		}
	}

	final := make([]*library.Choice, len(p.CC.Gates))
	for gi := range final {
		final[gi] = state.Choice(gi)
	}
	leak, isub := leakOf(final)
	stats.Runtime = sol.Stats.Runtime + time.Since(start)
	return &Solution{
		State:   append([]bool(nil), sol.State...),
		Choices: final,
		Leak:    leak,
		Isub:    isub,
		Delay:   state.Delay(),
		Stats:   stats,
	}, nil
}
