package core

import (
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/sta"
	"svto/internal/tech"
)

// benchRandomProblem builds a Problem over a small deterministic
// random-logic block — the exact gate-tree branch-and-bound is exponential
// in gate count, so its benchmarks need a circuit far below c432 scale.
func benchRandomProblem(b *testing.B, name string, seed int64, inputs, gates int) *Problem {
	b.Helper()
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	circ, err := gen.RandomLogic(name, seed, inputs, gates)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblem(circ, lib, sta.DefaultConfig(), ObjTotal)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchWorker builds a single search worker with a heuristic-1-seeded
// incumbent, mirroring the state every tree-search leaf evaluation runs in.
func benchWorker(b *testing.B, p *Problem, alg Algorithm) (*worker, *sharedSearch, []bool) {
	b.Helper()
	budget := p.Budget(0.05)
	seed, err := p.heuristic1(budget)
	if err != nil {
		b.Fatal(err)
	}
	base, err := p.Timer.NewState(p.Timer.FastChoices())
	if err != nil {
		b.Fatal(err)
	}
	sh := newSharedSearch(p, Options{Algorithm: alg}, budget, seed)
	w, err := sh.newWorker(base)
	if err != nil {
		b.Fatal(err)
	}
	// Evaluate a fixed state that differs from the seed so the gate-tree
	// descent does real work.
	state := append([]bool(nil), seed.State...)
	state[0] = !state[0]
	if len(state) > 1 {
		state[len(state)/2] = !state[len(state)/2]
	}
	return w, sh, state
}

// BenchmarkLeafEval measures one complete leaf evaluation — the gate-tree
// descent the search performs at every explored state-tree leaf.  The
// greedy variant is Heuristic 2's per-leaf cost on full ISCAS-scale
// circuits; the exact variant (the gate-tree branch-and-bound, exponential
// in gate count) runs on a small random-logic block.  Both must allocate
// nothing after warm-up.
func BenchmarkLeafEval(b *testing.B) {
	for _, circuit := range []string{"c432", "c880"} {
		b.Run(circuit+"/greedy", func(b *testing.B) {
			p := benchProblem(b, circuit)
			w, _, state := benchWorker(b, p, AlgHeuristic2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.greedyLeaf(state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rand10x14/exact", func(b *testing.B) {
		p := benchRandomProblem(b, "leafbench", 11, 10, 14)
		w, _, state := benchWorker(b, p, AlgExact)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := w.exactLeaf(state); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestLeafEvalAllocFree is the 0-alloc contract of the leaf paths: after
// warm-up, the greedy and exact leaf descents perform no heap allocation.
// (Allocation remains only where a result is materialized: an incumbent
// improvement, which does not recur for a repeated, non-improving leaf.)
func TestLeafEvalAllocFree(t *testing.T) {
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	circ, err := gen.RandomLogic("allocfree", 13, 10, 14)
	if err != nil {
		t.Fatal(err)
	}
	build := func(alg Algorithm) (*worker, []bool) {
		p, err := NewProblem(circ, lib, sta.DefaultConfig(), ObjTotal)
		if err != nil {
			t.Fatal(err)
		}
		budget := p.Budget(0.05)
		seed, err := p.heuristic1(budget)
		if err != nil {
			t.Fatal(err)
		}
		base, err := p.Timer.NewState(p.Timer.FastChoices())
		if err != nil {
			t.Fatal(err)
		}
		sh := newSharedSearch(p, Options{Algorithm: alg}, budget, seed)
		w, err := sh.newWorker(base)
		if err != nil {
			t.Fatal(err)
		}
		state := append([]bool(nil), seed.State...)
		state[0] = !state[0]
		state[len(state)/2] = !state[len(state)/2]
		return w, state
	}

	cases := []struct {
		name string
		alg  Algorithm
	}{
		{"greedy/eval", AlgHeuristic2},
		{"exact/eval", AlgExact},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, state := build(tc.alg)
			run := func() {
				var err error
				if tc.alg == AlgExact {
					err = w.exactLeaf(state)
				} else {
					err = w.greedyLeaf(state)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up: the first visit may install an incumbent
			if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
				t.Errorf("%s: %v allocs per leaf, want 0", tc.name, allocs)
			}
		})
	}
}

// BenchmarkSetChoice measures one incremental re-timing step: flipping a
// mid-circuit gate between its fastest and slowest state-0 choice and
// re-propagating the affected cone.
func BenchmarkSetChoice(b *testing.B) {
	for _, circuit := range []string{"c432", "c880"} {
		b.Run(circuit, func(b *testing.B) {
			p := benchProblem(b, circuit)
			st, err := p.Timer.NewState(p.Timer.FastChoices())
			if err != nil {
				b.Fatal(err)
			}
			gi := len(p.CC.Gates) / 2
			cell := p.Timer.Cells[gi]
			a := cell.FastChoice(0)
			c := cell.MinLeakChoice(0)
			if a == c {
				b.Skip("gate has a single choice")
			}
			// Warm the propagation heap.
			st.SetChoice(gi, c)
			st.SetChoice(gi, a)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					st.SetChoice(gi, c)
				} else {
					st.SetChoice(gi, a)
				}
			}
		})
	}
}
