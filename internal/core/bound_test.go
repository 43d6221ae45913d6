package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/sim"
)

// TestInc3MatchesStateBound cross-checks the incremental bound engine
// against the slow-path stateBound reference on the real objective tables:
// random assign/undo walks over a mid-size circuit must produce bit-for-bit
// identical bounds (==, no epsilon), which is what keeps Workers=1 searches
// byte-identical after the engine swap.
func TestInc3MatchesStateBound(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range []Objective{ObjTotal, ObjIsubOnly} {
		p := newProblem(t, circ, library.DefaultOptions(), obj)
		eng, err := p.newBoundEngine(nil)
		if err != nil {
			t.Fatal(err)
		}
		pi := make([]sim.Value, len(p.CC.PI))
		for i := range pi {
			pi[i] = sim.X
		}
		type frame struct {
			idx int
			old sim.Value
		}
		var stack []frame
		check := func() {
			t.Helper()
			want, err := p.stateBound(pi)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := eng.Bounds(); got != want {
				t.Fatalf("obj=%d: engine bound %v != stateBound %v (depth %d)", obj, got, want, eng.Depth())
			}
		}
		rng := rand.New(rand.NewSource(3))
		check()
		for step := 0; step < 300; step++ {
			if len(stack) > 0 && rng.Intn(3) == 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				pi[f.idx] = f.old
				eng.Undo()
			} else {
				idx := rng.Intn(len(pi))
				v := sim.Value(rng.Intn(3))
				stack = append(stack, frame{idx, pi[idx]})
				pi[idx] = v
				eng.Assign(idx, v)
			}
			check()
		}
	}
}

// TestInc3FastBoundMatchesStateOnlyReference checks the state-only variant
// of the engine (fast-version contribution tables) against an explicit
// Eval3 reference, again bit for bit.
func TestInc3FastBoundMatchesStateOnlyReference(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	eng, err := p.fastBoundEngine()
	if err != nil {
		t.Fatal(err)
	}
	ref := func(pi []sim.Value) float64 {
		vals, err := sim.Eval3(p.CC, pi)
		if err != nil {
			t.Fatal(err)
		}
		b := 0.0
		for gi := range p.CC.Gates {
			g := &p.CC.Gates[gi]
			leaks := p.Timer.Cells[gi].Fast().Leak
			// The baseline engine is coarse: any X fan-in falls back to the
			// row minimum, never the pattern minimum.
			state, xmask := sim.GateState3(g, vals)
			if xmask == 0 {
				b += leaks[state]
			} else {
				m := leaks[0]
				for _, l := range leaks[1:] {
					if l < m {
						m = l
					}
				}
				b += m
			}
		}
		return b
	}
	pi := make([]sim.Value, len(p.CC.PI))
	// Walk every partial assignment of the 3 inputs (3^3 = 27).
	for a := 0; a < 27; a++ {
		code := a
		for i := range pi {
			pi[i] = sim.Value(code % 3)
			code /= 3
		}
		for i, v := range pi {
			eng.Assign(i, v)
		}
		got, _ := eng.Bounds()
		if want := ref(pi); got != want {
			t.Fatalf("assignment %v: engine %v != reference %v", pi, got, want)
		}
		for range pi {
			eng.Undo()
		}
	}
}

// TestObjIsubOnlyMinimizesIsub is the [12]-baseline regression test: an
// exhaustive search under ObjIsubOnly on a Vt-only library must return the
// minimum-subthreshold-leakage feasible solution (tie-broken on total
// leakage), established here by brute force over every state x choice
// combination.  The seed implementation failed this: bounds and gate
// ordering were in Isub units but the shared incumbent accepted and pruned
// on total leakage, so the search minimized the wrong objective (on this
// circuit it returned Isub 160.9 instead of the optimal 98.2).
func TestObjIsubOnlyMinimizesIsub(t *testing.T) {
	opt := library.DefaultOptions()
	opt.VtOnly = true
	p := newProblem(t, tinyCircuit(), opt, ObjIsubOnly)
	const penalty = 0.05
	budget := p.Budget(penalty)

	// Brute force: lexicographic minimum of (Isub, Leak) over the feasible
	// set, mirroring the incumbent's tie-break.
	bestIsub, bestLeak := math.Inf(1), math.Inf(1)
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
			leak, isub := 0.0, 0.0
			for gi := range counts {
				ch := &p.Timer.Cells[gi].Choices[states[gi]][idx[gi]]
				choices[gi] = ch
				leak += ch.Leak
				isub += ch.Isub
			}
			if isub < bestIsub+1e-12 {
				d, err := p.Timer.Analyze(choices)
				if err != nil {
					t.Fatal(err)
				}
				if d <= budget+1e-9 {
					if isub < bestIsub-1e-12 || leak < bestLeak {
						bestIsub, bestLeak = isub, leak
					}
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

	for _, workers := range []int{1, 2} {
		sol, err := p.Solve(context.Background(), Options{
			Algorithm: AlgExact, Penalty: penalty, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, p, sol, budget)
		if math.Abs(sol.Isub-bestIsub) > 1e-6 {
			t.Errorf("workers=%d: exact Isub %.4f != brute-force minimum %.4f (leak %.4f vs %.4f)",
				workers, sol.Isub, bestIsub, sol.Leak, bestLeak)
		}
		if math.Abs(sol.Leak-bestLeak) > 1e-6 {
			t.Errorf("workers=%d: tie-break leak %.4f != brute-force %.4f", workers, sol.Leak, bestLeak)
		}
	}

	// The sanity anchor that makes this test discriminating: the total-leak
	// optimum has strictly worse Isub, so a search that minimizes total
	// leakage cannot pass the assertions above.
	objTotal := newProblem(t, tinyCircuit(), opt, ObjTotal)
	totalSol, err := objTotal.Solve(context.Background(), Options{
		Algorithm: AlgExact, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if totalSol.Isub <= bestIsub+1e-9 {
		t.Errorf("test not discriminating: total-leak optimum Isub %.4f <= min Isub %.4f",
			totalSol.Isub, bestIsub)
	}
}

// TestObjIsubOnlyHeuristic2 runs the same Vt-only problem through an
// exhaustive Heuristic 2 walk: the greedy gate descent is not guaranteed to
// reach the exact optimum, but the returned solution must never have more
// Isub than the Heuristic 1 seed — the seed-era incumbent compared total
// leakage and could replace the seed with a higher-Isub "improvement".
func TestObjIsubOnlyHeuristic2(t *testing.T) {
	opt := library.DefaultOptions()
	opt.VtOnly = true
	p := newProblem(t, tinyCircuit(), opt, ObjIsubOnly)
	const penalty = 0.05
	h1, err := p.Solve(context.Background(), Options{Algorithm: AlgHeuristic1, Penalty: penalty, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Solve(context.Background(), Options{Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Isub > h1.Isub+1e-9 {
		t.Errorf("Heuristic2 Isub %.4f worse than its Heuristic1 seed %.4f", h2.Isub, h1.Isub)
	}
}
