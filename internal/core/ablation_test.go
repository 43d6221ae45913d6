package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"svto/internal/library"
	"svto/internal/relax"
)

// The paper's section 5 calls out three design choices of the search:
// leakage-sorted gate-tree edges, incremental STA and 3-valued partial-state
// bounds.  The solver has one code path, with all three on; the instruments
// below measure each choice against a reference without it.  The sorted-edge
// count is BenchmarkAblationSortedVersions in the root package.

// disableStateBounds turns p's state-tree bounds off for searches at the
// given penalty: every cheap-table entry becomes 0, so every branch bounds
// at 0 (False first, nothing pruned), and the budget's relaxation engine is
// recorded as absent, the entry relaxEngine caches when relaxation cannot
// improve on the cheap bound.  The zero table also empties the exact
// descent's suffix bound, so it serves Heuristic 2 and the seed descent
// only.  The gate-ordering key (gainTab) keeps its values.
func disableStateBounds(p *Problem, penalty float64) {
	for gi := range p.minChoice {
		p.minChoice[gi] = make([]float64, len(p.minChoice[gi]))
	}
	p.minAny = make([]float64, len(p.minAny))
	disableRelax(p, p.Budget(penalty))
}

// disableRelax records that p has no relaxation engine for budget, so the
// bound cascade runs on the cheap bound alone and the gate-tree descents
// skip no candidate.
func disableRelax(p *Problem, budget float64) {
	p.relaxMu.Lock()
	defer p.relaxMu.Unlock()
	if p.relaxCache == nil {
		p.relaxCache = make(map[uint64]*relax.Engine)
	}
	p.relaxCache[math.Float64bits(budget)] = nil
}

// fullSTADescent is assignGatesArena with every delay-checked trial re-timed
// from scratch by Timer.Analyze instead of incremental propagation: the
// reference of the incremental-STA ablation.  a.gateSt must hold the leaf's
// gate states; the assignment is left in a.choices and its analyzed delay
// returned.  It skips no candidate, as evalState skips none.
func (p *Problem) fullSTADescent(a *leafArena, budget float64, stats *Counters) (float64, error) {
	p.rankGates(a)
	choices := p.Timer.FastChoices()
	for _, gi32 := range a.order {
		gi := int(gi32)
		s := a.gateSt[gi]
		cands := p.Timer.Cells[gi].Choices[s]
		for _, ci := range p.rankTab[gi][s] {
			ch := &cands[ci]
			stats.GateTrials++
			prev := choices[gi]
			choices[gi] = ch
			if ch.Version.MaxFactor <= 1 {
				break
			}
			d, err := p.Timer.Analyze(choices)
			if err != nil {
				return 0, err
			}
			if d <= budget+DelayEps {
				break
			}
			choices[gi] = prev
		}
	}
	copy(a.choices, choices)
	return p.Timer.Analyze(choices)
}

// TestGreedyDescentMatchesFullSTA: the incremental greedy descent accepts
// exactly the choices a descent re-timing every trial from scratch accepts,
// and reports that assignment's analyzed delay bit for bit, on the
// Heuristic 1 state and on random states.
func TestGreedyDescentMatchesFullSTA(t *testing.T) {
	const randomStates = 50
	for _, circuit := range []string{"c432", "c880"} {
		p := newProblem(t, mustBenchmark(t, circuit), library.DefaultOptions(), ObjTotal)
		for _, penalty := range []float64{0, 0.05, 0.25} {
			t.Run(fmt.Sprintf("%s/%v", circuit, penalty), func(t *testing.T) {
				t.Parallel()
				budget := p.Budget(penalty)
				h1, err := p.heuristic1(budget)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				states := [][]bool{h1.State}
				for range randomStates {
					st := make([]bool, len(p.CC.PI))
					for i := range st {
						st[i] = rng.Intn(2) == 1
					}
					states = append(states, st)
				}
				a := p.newLeafArena()
				for k, state := range states {
					var stats Counters
					want, err := p.evalState(state, budget, &stats)
					if err != nil {
						t.Fatal(err)
					}
					if err := p.gateStatesInto(a, state); err != nil {
						t.Fatal(err)
					}
					var refStats Counters
					delay, err := p.fullSTADescent(a, budget, &refStats)
					if err != nil {
						t.Fatal(err)
					}
					for gi, ch := range a.choices {
						if ch != want.Choices[gi] {
							t.Fatalf("state %d: gate %d takes %v, full STA %v",
								k, gi, want.Choices[gi].Version.Name, ch.Version.Name)
						}
					}
					if math.Float64bits(delay) != math.Float64bits(want.Delay) {
						t.Fatalf("state %d: delay %v, full STA %v", k, want.Delay, delay)
					}
					if refStats.GateTrials != stats.GateTrials {
						t.Fatalf("state %d: %d gate trials, full STA %d", k, stats.GateTrials, refStats.GateTrials)
					}
				}
			})
		}
	}
}

// BenchmarkAblationIncrementalSTA times the greedy gate-tree descent of
// Heuristic 1's state on c880 at 5%, with incremental retiming and with the
// full-STA reference descent.
func BenchmarkAblationIncrementalSTA(b *testing.B) {
	p := benchProblem(b, "c880")
	budget := p.Budget(0.05)
	h1, err := p.heuristic1(budget)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var stats Counters
			if _, err := p.evalState(h1.State, budget, &stats); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-sta", func(b *testing.B) {
		a := p.newLeafArena()
		if err := p.gateStatesInto(a, h1.State); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var stats Counters
			if _, err := p.fullSTADescent(a, budget, &stats); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationStateBounds measures the 3-valued partial-state bounds:
// without them Heuristic 2 explores the state tree blindly (False first at
// every input), reaching worse states in the same time budget.
func BenchmarkAblationStateBounds(b *testing.B) {
	const penalty = 0.05
	for _, bounds := range []bool{true, false} {
		name := "bounds"
		if !bounds {
			name = "no-bounds"
		}
		b.Run(name, func(b *testing.B) {
			p := benchProblem(b, "c432")
			if !bounds {
				disableStateBounds(p, penalty)
			}
			b.ResetTimer()
			var sol *Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = solve1(p, Options{Algorithm: AlgHeuristic2, Penalty: penalty, TimeLimit: 50 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Leak/1000, "uA_leak")
			b.ReportMetric(float64(sol.Stats.Leaves), "leaves")
		})
	}
}
