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

// TestRelaxBoundAdmissibleFuzz is the randomized admissibility check of the
// choice-elimination bound: for random partial input assignments on small
// circuits, the relax bound must never exceed the leakage of ANY feasible
// completion — verified by brute-force enumeration of every completion,
// evaluating each leaf through the same descent the search uses.  The
// comparison is exact (no epsilon): the engine's admissibility argument
// (relax package doc) is bit-level, so any rounding slip shows up here as
// a hard failure.
func TestRelaxBoundAdmissibleFuzz(t *testing.T) {
	type cfg struct {
		name          string
		seed          int64
		inputs, gates int
	}
	cases := []cfg{
		{"fuzz6", 3, 6, 18},
		{"fuzz8", 11, 8, 30},
		{"fuzz12", 29, 12, 45},
	}
	tested := 0
	for _, c := range cases {
		circ, err := gen.RandomLogic(c.name, c.seed, c.inputs, c.gates)
		if err != nil {
			t.Fatal(err)
		}
		p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
		// Penalty 0 pins the budget at dmin (every slow choice is checked
		// against it) and 0.001 sits just above it — the regimes where the
		// bound eliminates the most choices and any admissibility slip
		// would surface.
		for _, penalty := range []float64{0, 0.001, 0.02, 0.05, 0.10} {
			budget := p.Budget(penalty)
			eng, err := p.relaxEngine(context.Background(), budget)
			if err != nil {
				t.Fatal(err)
			}
			if eng == nil {
				// Budget loose enough that every gate's cheapest choice is
				// acceptable; nothing to test at this penalty.
				continue
			}
			tested++

			// Dominance: the cascade only probes branches the cheap bound
			// already failed to prune, which is sound only if the relax
			// tables are everywhere >= the minChoice/minAny tables.
			for gi := range eng.Known {
				for s, v := range eng.Known[gi] {
					if v < p.minChoice[gi][s] {
						t.Fatalf("%s pen=%.2f: Known[%d][%d]=%v < minChoice %v",
							c.name, penalty, gi, s, v, p.minChoice[gi][s])
					}
				}
				if eng.Unknown[gi] < p.minAny[gi] {
					t.Fatalf("%s pen=%.2f: Unknown[%d]=%v < minAny %v",
						c.name, penalty, gi, eng.Unknown[gi], p.minAny[gi])
				}
			}

			rx, err := sim.NewInc3(p.CC, eng.Known, eng.Unknown)
			if err != nil {
				t.Fatal(err)
			}
			nPI := len(p.CC.PI)
			rng := rand.New(rand.NewSource(c.seed*1009 + int64(penalty*100)))
			for trial := 0; trial < 25; trial++ {
				// Assign all but a handful of inputs so the completion
				// enumeration stays small (<= 2^4 leaves per trial).
				free := 1 + rng.Intn(4)
				perm := rng.Perm(nPI)
				assigned := perm[free:]
				state := make([]bool, nPI)
				for _, pi := range assigned {
					state[pi] = rng.Intn(2) == 1
					v := sim.False
					if state[pi] {
						v = sim.True
					}
					rx.Assign(pi, v)
				}
				bound, _ := rx.Bounds()

				var stats Counters
				minLeaf := math.Inf(1)
				for sv := 0; sv < 1<<free; sv++ {
					for k, pi := range perm[:free] {
						state[pi] = sv>>k&1 == 1
					}
					sol, err := p.evalState(state, budget, &stats)
					if err != nil {
						t.Fatal(err)
					}
					if sol.Leak < minLeaf {
						minLeaf = sol.Leak
					}
				}
				if bound > minLeaf {
					t.Fatalf("%s pen=%.2f trial %d: relax bound %v exceeds best completion leaf %v",
						c.name, penalty, trial, bound, minLeaf)
				}
				for range assigned {
					rx.Undo()
				}
			}
			if rx.Depth() != 0 {
				t.Fatalf("%s: undo trail not drained (depth %d)", c.name, rx.Depth())
			}

			// Root (all-X) bound against the true optimum: the exact search
			// result is a feasible completion, so the bound is <= it.
			if c.inputs <= 8 {
				root, _ := rx.Bounds()
				exact, err := solve1(p, Options{Algorithm: AlgExact, Penalty: penalty})
				if err != nil {
					t.Fatal(err)
				}
				if root > exact.Leak {
					t.Fatalf("%s pen=%.2f: root bound %v exceeds exact optimum %v",
						c.name, penalty, root, exact.Leak)
				}
			}
		}
	}
	if tested == 0 {
		t.Fatal("relaxation engine never activated; fuzz exercised nothing")
	}
}

// TestNoRelaxBoundAblationEquivalence: the bound cascade is a pure pruning
// accelerator — with Workers=1 the search visits leaves in the same order
// and keeps the same incumbents, so ablating the relaxation must leave the
// final solution bit-for-bit identical while exploring at least as many
// state nodes.
func TestNoRelaxBoundAblationEquivalence(t *testing.T) {
	circ, err := gen.RandomLogic("relaxeq", 7, 8, 24)
	if err != nil {
		t.Fatal(err)
	}
	const penalty = 0.03
	withRelax := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	ablated := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	ablated.Ablate.NoRelaxBound = true

	for _, alg := range []Algorithm{AlgHeuristic2, AlgExact} {
		a, err := solve1(withRelax, Options{Algorithm: alg, Penalty: penalty})
		if err != nil {
			t.Fatal(err)
		}
		b, err := solve1(ablated, Options{Algorithm: alg, Penalty: penalty})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Leak) != math.Float64bits(b.Leak) ||
			math.Float64bits(a.Delay) != math.Float64bits(b.Delay) {
			t.Errorf("%v: cascade (%.12f, %.12f) != ablated (%.12f, %.12f)",
				alg, a.Leak, a.Delay, b.Leak, b.Delay)
		}
		for i := range a.State {
			if a.State[i] != b.State[i] {
				t.Fatalf("%v: sleep vectors differ at input %d", alg, i)
			}
		}
		if a.Stats.StateNodes > b.Stats.StateNodes {
			t.Errorf("%v: cascade explored %d state nodes, ablated only %d",
				alg, a.Stats.StateNodes, b.Stats.StateNodes)
		}
		if b.Stats.RelaxBounds != 0 || b.Stats.RelaxPruned != 0 {
			t.Errorf("%v: ablated run reported relax activity: %+v", alg, b.Stats)
		}
		if alg == AlgExact && a.Stats.RelaxBounds == 0 {
			t.Errorf("exact cascade run never probed the relaxation; test is vacuous")
		}
	}
}

// TestExactWorkers4MatchesWorkers1: on the RandomLogic "portfolio7"
// instance (its name kept so the instance stays byte-identical), the
// exhaustive tree search with four workers must reach the single-worker
// optimum.
func TestExactWorkers4MatchesWorkers1(t *testing.T) {
	circ, err := gen.RandomLogic("portfolio7", 13, 7, 22)
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const penalty = 0.05
	seq, err := solve1(p, Options{Algorithm: AlgExact, Penalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Solve(context.Background(), Options{Algorithm: AlgExact, Penalty: penalty, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.Leak-seq.Leak) > 1e-9 {
		t.Errorf("parallel leak %.9f != exact optimum %.9f", par.Leak, seq.Leak)
	}
	checkSolution(t, p, par, p.Budget(penalty))
}

// TestParseAlgorithm: one parser serves the CLI, the submit flow and the
// public API, accepting exactly the Algorithm.String names.
func TestParseAlgorithm(t *testing.T) {
	for _, alg := range []Algorithm{AlgHeuristic1, AlgHeuristic2, AlgExact, AlgStateOnly} {
		got, err := ParseAlgorithm(alg.String())
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", alg.String(), err)
		}
		if got != alg {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", alg.String(), got, alg)
		}
	}
	for _, bad := range []string{"", "heu1", "heu2", "Exact", "vt-state", "compare", "bogus"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}
