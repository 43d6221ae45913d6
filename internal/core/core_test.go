package core

import (
	"context"
	"math"
	"testing"
	"time"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sim"
	"svto/internal/sta"
	"svto/internal/tech"
)

// solve1 runs one deterministic (Workers=1) search through the unified
// Solve entry point; the per-algorithm wrapper methods are deprecated and
// only exercised by TestDeprecatedWrappersMatchSolve.
func solve1(p *Problem, o Options) (*Solution, error) {
	o.Workers = 1
	return p.Solve(context.Background(), o)
}

func lib(t *testing.T, opt library.Options) *library.Library {
	t.Helper()
	l, err := library.Cached(tech.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// tinyCircuit: 3 inputs, 4 gates, small enough for brute force.
func tinyCircuit() *netlist.Circuit {
	return &netlist.Circuit{
		Name:    "tiny",
		Inputs:  []string{"a", "b", "c"},
		Outputs: []string{"o1", "o2"},
		Gates: []netlist.Gate{
			{Name: "n1", Op: netlist.OpNand, Fanin: []string{"a", "b"}},
			{Name: "n2", Op: netlist.OpNor, Fanin: []string{"b", "c"}},
			{Name: "o1", Op: netlist.OpNand, Fanin: []string{"n1", "n2"}},
			{Name: "o2", Op: netlist.OpNot, Fanin: []string{"n2"}},
		},
	}
}

func newProblem(t *testing.T, circ *netlist.Circuit, opt library.Options, obj Objective) *Problem {
	t.Helper()
	p, err := NewProblem(circ, lib(t, opt), sta.DefaultConfig(), obj)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkSolution verifies structural invariants: every gate's choice belongs
// to its simulated state's choice list, leakage sums match, and the delay
// respects the budget.
func checkSolution(t *testing.T, p *Problem, sol *Solution, budget float64) {
	t.Helper()
	states, err := p.gateStates(sol.State)
	if err != nil {
		t.Fatal(err)
	}
	var leak, isub float64
	for gi, ch := range sol.Choices {
		found := false
		for ci := range p.Timer.Cells[gi].Choices[states[gi]] {
			if &p.Timer.Cells[gi].Choices[states[gi]][ci] == ch {
				found = true
			}
		}
		if !found {
			t.Fatalf("gate %d: choice not in its state-%d list", gi, states[gi])
		}
		leak += ch.Leak
		isub += ch.Isub
	}
	if math.Abs(leak-sol.Leak) > 1e-9 {
		t.Errorf("leak sum %.3f != reported %.3f", leak, sol.Leak)
	}
	if math.Abs(isub-sol.Isub) > 1e-9 {
		t.Errorf("isub sum %.3f != reported %.3f", isub, sol.Isub)
	}
	if sol.Delay > budget+1e-6 {
		t.Errorf("delay %.3f exceeds budget %.3f", sol.Delay, budget)
	}
	delay, err := p.Timer.Analyze(sol.Choices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delay-sol.Delay) > 1e-6 {
		t.Errorf("reported delay %.3f != recomputed %.3f", sol.Delay, delay)
	}
}

func TestHeuristic1Tiny(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	sol, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, sol, p.Budget(0.05))
	if sol.Leak <= 0 {
		t.Error("leak should be positive")
	}
	if sol.Stats.StateNodes == 0 || sol.Stats.GateTrials == 0 {
		t.Error("stats not collected")
	}
}

// Exact must match brute force on the tiny circuit.
func TestExactMatchesBruteForce(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	const penalty = 0.10
	budget := p.Budget(penalty)

	exact, err := solve1(p, Options{Algorithm: AlgExact, Penalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, exact, budget)

	// Brute force over all states and all choice combinations.
	best := math.Inf(1)
	nPI := len(p.CC.PI)
	for sv := 0; sv < 1<<nPI; sv++ {
		state := make([]bool, nPI)
		for i := range state {
			state[i] = sv>>i&1 == 1
		}
		states, err := p.gateStates(state)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, len(p.CC.Gates))
		for gi := range counts {
			counts[gi] = len(p.Timer.Cells[gi].Choices[states[gi]])
		}
		idx := make([]int, len(counts))
		for {
			choices := make([]*library.Choice, len(counts))
			leak := 0.0
			for gi := range counts {
				ch := &p.Timer.Cells[gi].Choices[states[gi]][idx[gi]]
				choices[gi] = ch
				leak += ch.Leak
			}
			if leak < best {
				d, err := p.Timer.Analyze(choices)
				if err != nil {
					t.Fatal(err)
				}
				if d <= budget+1e-9 {
					best = leak
				}
			}
			k := 0
			for k < len(idx) {
				idx[k]++
				if idx[k] < counts[k] {
					break
				}
				idx[k] = 0
				k++
			}
			if k == len(idx) {
				break
			}
		}
	}
	if math.Abs(exact.Leak-best) > 1e-6 {
		t.Errorf("exact leak %.4f != brute force %.4f", exact.Leak, best)
	}
}

func TestHeuristicsOrdering(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const penalty = 0.05
	budget := p.Budget(penalty)

	avg, err := p.AverageRandomLeak(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	stateOnly, err := solve1(p, Options{Algorithm: AlgStateOnly})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, stateOnly, p.Dmin*1.001)
	h1, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, h1, budget)
	h2, err := solve1(p, Options{Algorithm: AlgHeuristic2, Penalty: penalty, TimeLimit: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, h2, budget)

	if stateOnly.Leak >= avg {
		t.Errorf("state-only (%.1f) should beat random average (%.1f)", stateOnly.Leak, avg)
	}
	if h1.Leak >= stateOnly.Leak {
		t.Errorf("Heu1 (%.1f) should beat state-only (%.1f)", h1.Leak, stateOnly.Leak)
	}
	if h2.Leak > h1.Leak+1e-9 {
		t.Errorf("Heu2 (%.1f) must never be worse than Heu1 (%.1f)", h2.Leak, h1.Leak)
	}
	// Headline sanity: the reduction factor at 5% penalty should be
	// substantial (paper: 3.6X for c432).
	if x := avg / h1.Leak; x < 2 {
		t.Errorf("Heu1 reduction factor %.2f implausibly low", x)
	}
}

func TestPenaltyMonotone(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	prev := math.Inf(1)
	for _, pen := range []float64{0, 0.05, 0.10, 0.25, 1.0} {
		sol, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: pen})
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, p, sol, p.Budget(pen))
		if sol.Leak > prev*1.02 {
			t.Errorf("penalty %.0f%%: leak %.1f notably above looser budget's %.1f", pen*100, sol.Leak, prev)
		}
		if sol.Leak < prev {
			prev = sol.Leak
		}
	}
}

func TestZeroPenaltyKeepsMinDelay(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	sol, err := solve1(p, Options{Algorithm: AlgHeuristic1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Delay > p.Dmin+1e-6 {
		t.Errorf("zero penalty: delay %.3f exceeds Dmin %.3f", sol.Delay, p.Dmin)
	}
	// Even at zero penalty some gain is available (off-critical gates,
	// permuted fast versions, good state choice).
	avg, err := p.AverageRandomLeak(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Leak >= avg {
		t.Errorf("zero-penalty solution (%.1f) should still beat average (%.1f)", sol.Leak, avg)
	}
}

// The Vt+state baseline ([12]) cannot fix gate leakage: at equal penalty it
// must leak more than the proposed dual-Tox method.
func TestVtStateBaselineWorse(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	full := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	vtOpt := library.DefaultOptions()
	vtOpt.VtOnly = true
	vtP, err := NewProblem(circ, lib(t, vtOpt), sta.DefaultConfig(), ObjIsubOnly)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := solve1(full, Options{Algorithm: AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	vtSol, err := solve1(vtP, Options{Algorithm: AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if vtSol.Leak <= h1.Leak {
		t.Errorf("Vt+state (%.1f) should leak more than state+Vt+Tox (%.1f)", vtSol.Leak, h1.Leak)
	}
	// And its subthreshold component should nonetheless be well reduced.
	avg, err := full.AverageRandomLeak(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	if x := avg / vtSol.Leak; x < 1.3 {
		t.Errorf("Vt+state reduction %.2fX implausibly low", x)
	}
}

func TestExactRefusesWideCircuits(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	if _, err := solve1(p, Options{Algorithm: AlgExact, Penalty: 0.05}); err == nil {
		t.Error("exact accepted a 36-input circuit")
	}
}

func TestHeuristic2ImprovesOrMatchesOnTiny(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	h1, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := solve1(p, Options{Algorithm: AlgHeuristic2, Penalty: 0.10, TimeLimit: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := solve1(p, Options{Algorithm: AlgExact, Penalty: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Leak > h1.Leak {
		t.Errorf("Heu2 %.3f worse than Heu1 %.3f", h2.Leak, h1.Leak)
	}
	if exact.Leak > h2.Leak+1e-9 {
		t.Errorf("exact %.3f worse than Heu2 %.3f", exact.Leak, h2.Leak)
	}
	// On a 3-input circuit a 1s Heu2 budget explores the whole tree, so
	// its state choice must match the exact optimum's leakage.
	if math.Abs(h2.Leak-exact.Leak) > 1e-9 {
		t.Logf("note: Heu2 %.3f vs exact %.3f (greedy gate descent may differ)", h2.Leak, exact.Leak)
	}
}

func TestAverageRandomLeakDeterministic(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	a, err := p.AverageRandomLeak(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AverageRandomLeak(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed produced different averages")
	}
	if _, err := p.AverageRandomLeak(5, 0); err == nil {
		t.Error("zero vectors accepted")
	}
}

func TestAllSlowLeak(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	state := []bool{false, true, false}
	slow, err := p.AllSlowLeak(state)
	if err != nil {
		t.Fatal(err)
	}
	states, err := p.gateStates(state)
	if err != nil {
		t.Fatal(err)
	}
	fast := 0.0
	for gi, s := range states {
		fast += p.Timer.Cells[gi].Fast().Leak[s]
	}
	if slow >= fast {
		t.Errorf("all-slow leak %.1f should be far below all-fast %.1f", slow, fast)
	}
}

// 3-valued bound is admissible: never above the leakage of any completion.
func TestStateBoundAdmissible(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	for mask := 0; mask < 8; mask++ {
		for vals := 0; vals < 8; vals++ {
			pi := make([]sim.Value, 3)
			for i := 0; i < 3; i++ {
				if mask>>i&1 == 1 {
					pi[i] = sim.FromBool(vals>>i&1 == 1)
				} else {
					pi[i] = sim.X
				}
			}
			bound, err := p.stateBound(pi)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < 8; c++ {
				state := make([]bool, 3)
				ok := true
				for i := 0; i < 3; i++ {
					if mask>>i&1 == 1 {
						state[i] = vals>>i&1 == 1
					} else {
						state[i] = c>>i&1 == 1
					}
					_ = ok
				}
				states, err := p.gateStates(state)
				if err != nil {
					t.Fatal(err)
				}
				minLeak := 0.0
				for gi, s := range states {
					minLeak += p.Timer.Cells[gi].MinLeakChoice(s).Leak
				}
				if bound > minLeak+1e-9 {
					t.Fatalf("bound %.3f exceeds completion min %.3f (mask %03b vals %03b)", bound, minLeak, mask, vals)
				}
			}
		}
	}
}

func TestRefineImproves(t *testing.T) {
	prof, err := gen.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const penalty = 0.05
	h1, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Refine(h1, penalty, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, ref, p.Budget(penalty))
	if ref.Leak > h1.Leak+1e-9 {
		t.Errorf("refinement worsened leakage: %.2f -> %.2f", h1.Leak, ref.Leak)
	}
	// Refinement must not mutate the input solution.
	recheck, err := p.Timer.Analyze(h1.Choices)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(recheck-h1.Delay) > 1e-6 {
		t.Error("Refine mutated the original solution")
	}
	if _, err := p.Refine(h1, penalty, 0); err == nil {
		t.Error("zero passes accepted")
	}
	h1r, err := solve1(p, Options{Algorithm: AlgHeuristic1, Penalty: penalty, RefinePasses: 3})
	if err != nil {
		t.Fatal(err)
	}
	if h1r.Leak > h1.Leak+1e-9 {
		t.Error("Heuristic 1 with refinement worse than Heuristic 1")
	}
}

// Exact search on a circuit containing complex AOI/OAI cells, cross-checked
// against brute force over the full state x choice space.
func TestExactWithComplexCells(t *testing.T) {
	circ := &netlist.Circuit{
		Name:    "cx",
		Inputs:  []string{"a", "b", "c", "d"},
		Outputs: []string{"o"},
		Gates: []netlist.Gate{
			{Name: "n1", Op: netlist.OpAoi21, Fanin: []string{"a", "b", "c"}},
			{Name: "n2", Op: netlist.OpOai21, Fanin: []string{"b", "c", "d"}},
			{Name: "o", Op: netlist.OpNand, Fanin: []string{"n1", "n2"}},
		},
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const penalty = 0.10
	budget := p.Budget(penalty)
	exact, err := solve1(p, Options{Algorithm: AlgExact, Penalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, exact, budget)

	best := math.Inf(1)
	for sv := 0; sv < 16; sv++ {
		state := make([]bool, 4)
		for i := range state {
			state[i] = sv>>i&1 == 1
		}
		states, err := p.gateStates(state)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, 3)
		for gi := range counts {
			counts[gi] = len(p.Timer.Cells[gi].Choices[states[gi]])
		}
		idx := make([]int, 3)
		for {
			choices := make([]*library.Choice, 3)
			leak := 0.0
			for gi := range counts {
				ch := &p.Timer.Cells[gi].Choices[states[gi]][idx[gi]]
				choices[gi] = ch
				leak += ch.Leak
			}
			if leak < best {
				d, err := p.Timer.Analyze(choices)
				if err != nil {
					t.Fatal(err)
				}
				if d <= budget+1e-9 {
					best = leak
				}
			}
			k := 0
			for k < len(idx) {
				idx[k]++
				if idx[k] < counts[k] {
					break
				}
				idx[k] = 0
				k++
			}
			if k == len(idx) {
				break
			}
		}
	}
	if math.Abs(exact.Leak-best) > 1e-6 {
		t.Errorf("exact %.4f != brute force %.4f", exact.Leak, best)
	}
}

// Heuristic 2's wall-clock budget is respected within slack (one leaf
// evaluation may overrun).
func TestHeuristic2RespectsBudget(t *testing.T) {
	prof, err := gen.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	limit := 300 * time.Millisecond
	start := time.Now()
	if _, err := solve1(p, Options{Algorithm: AlgHeuristic2, Penalty: 0.05, TimeLimit: limit}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > limit+2*time.Second {
		t.Errorf("Heuristic2 took %v with a %v budget", elapsed, limit)
	}
}
