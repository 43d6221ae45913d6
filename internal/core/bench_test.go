package core

import (
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/sim"
	"svto/internal/sta"
	"svto/internal/tech"
)

func benchProblem(b *testing.B, name string) *Problem {
	b.Helper()
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewProblem(circ, lib, sta.DefaultConfig(), ObjTotal)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkStateBound measures one branch-bound evaluation during a
// state-tree descent — the dominant cost of every tree search — as a full
// 3-valued re-simulation (the seed implementation's stateBound) and as an
// Assign/Bound/Undo round-trip on the incremental engine.  The incremental
// path must not allocate and must beat full re-simulation by a wide margin
// on c432-class circuits.
func BenchmarkStateBound(b *testing.B) {
	for _, circuit := range []string{"c432", "c880"} {
		p := benchProblem(b, circuit)
		n := len(p.CC.PI)
		// A fixed half-assigned prefix: bounds are evaluated mid-descent,
		// not at the root.
		rng := rand.New(rand.NewSource(1))
		prefix := rng.Perm(n)[:n/2]

		b.Run(circuit+"/full-resim", func(b *testing.B) {
			pi := make([]sim.Value, n)
			for i := range pi {
				pi[i] = sim.X
			}
			for _, idx := range prefix[:len(prefix)-1] {
				pi[idx] = sim.Value(idx % 2)
			}
			flip := prefix[len(prefix)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pi[flip] = sim.Value(i % 2)
				if _, err := p.stateBound(pi); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(circuit+"/incremental", func(b *testing.B) {
			eng, err := p.newBoundEngine(nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, idx := range prefix[:len(prefix)-1] {
				eng.Assign(idx, sim.Value(idx%2))
			}
			flip := prefix[len(prefix)-1]
			// Warm the undo trails so steady-state is measured.
			eng.Assign(flip, sim.True)
			eng.Undo()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Assign(flip, sim.Value(i%2))
				_, _ = eng.Bounds()
				eng.Undo()
			}
		})
	}
}
