package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sim"
	"svto/internal/sta"
)

// scalarAverageRandomLeak is the per-vector reference for AverageRandomLeak:
// every vector of sim.RandomVectors simulated on its own, its gate states
// read back, and each gate's all-fast leakage added in vector-major,
// compiled-gate order.
func scalarAverageRandomLeak(t testing.TB, p *Problem, seed int64, vectors int) float64 {
	t.Helper()
	total := 0.0
	for _, vec := range sim.RandomVectors(seed, len(p.CC.PI), vectors) {
		vals, err := sim.Eval(p.CC, vec)
		if err != nil {
			t.Fatal(err)
		}
		for gi := range p.CC.Gates {
			var s uint
			for k, net := range p.CC.Gates[gi].In {
				if vals[net] {
					s |= 1 << uint(k)
				}
			}
			total += p.Timer.Cells[gi].Fast().Leak[s]
		}
	}
	return total / float64(vectors)
}

// genericProblem is a seeded random circuit over every op (AND/OR/XOR/XNOR
// up to 8 inputs, AOI22/OAI22 included) with synthetic all-fast leakage
// tables of distinct per-state values.  Only AverageRandomLeak's inputs are
// filled in: the compiled circuit and Timer.Cells[gi].Fast().Leak.
func genericProblem(t testing.TB, seed int64, inputs, gates int) *Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := &netlist.Circuit{Name: "generic"}
	nets := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		c.Inputs = append(c.Inputs, fmt.Sprintf("i%d", i))
		nets = append(nets, c.Inputs[i])
	}
	for g := 0; g < gates; g++ {
		op := netlist.Op(g % netlist.NumOps)
		lo, hi := op.FaninRange()
		n := min(lo+rng.Intn(hi-lo+1), len(nets))
		fan := make([]string, 0, n)
		for _, k := range rng.Perm(len(nets))[:n] {
			fan = append(fan, nets[k])
		}
		name := fmt.Sprintf("g%d", g)
		c.Gates = append(c.Gates, netlist.Gate{Name: name, Op: op, Fanin: fan})
		nets = append(nets, name)
	}
	c.Outputs = []string{nets[len(nets)-1]}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]*library.Cell, len(cc.Gates))
	for gi, g := range cc.Gates {
		leak := make([]float64, 1<<len(g.In))
		for s := range leak {
			leak[s] = rng.Float64() * 100
		}
		cells[gi] = &library.Cell{Versions: []*library.Version{{Leak: leak}}}
	}
	return &Problem{CC: cc, Timer: &sta.Timer{CC: cc, Cells: cells}}
}

// TestAverageRandomLeakMatchesScalar: the word-parallel baseline returns the
// per-vector reference's exact float64 bits on every paper circuit and on a
// random circuit over every op, at vector counts on both sides of a word.
func TestAverageRandomLeakMatchesScalar(t *testing.T) {
	probs := map[string]*Problem{"generic": genericProblem(t, 7, 24, 400)}
	for _, prof := range gen.Benchmarks() {
		circ, err := prof.Build()
		if err != nil {
			t.Fatal(err)
		}
		probs[prof.Name] = newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	}
	for name, p := range probs {
		for _, vectors := range []int{1, 63, 64, 65, 1000} {
			for _, seed := range []int64{1, 2004} {
				got, err := p.AverageRandomLeak(seed, vectors)
				if err != nil {
					t.Fatal(err)
				}
				want := scalarAverageRandomLeak(t, p, seed, vectors)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s, %d vectors, seed %d: %v, want %v", name, vectors, seed, got, want)
				}
			}
		}
	}
}

// TestAverageRandomLeakAllocsFlat: the baseline streams its vectors, so its
// allocations do not grow with the vector count.
func TestAverageRandomLeakAllocsFlat(t *testing.T) {
	p := newProblem(t, mustBenchmark(t, "c432"), library.DefaultOptions(), ObjTotal)
	allocs := func(vectors int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := p.AverageRandomLeak(1, vectors); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(64), allocs(6400); a != b {
		t.Errorf("allocations: %v at 64 vectors, %v at 6400", a, b)
	}
}

func mustBenchmark(t testing.TB, name string) *netlist.Circuit {
	t.Helper()
	prof, err := gen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

// BenchmarkAverageRandomLeak measures the random-vector baseline over all
// eleven paper circuits, at the benchmark's 1000 vectors and the paper's
// 10,000; one op is one baseline per circuit.
func BenchmarkAverageRandomLeak(b *testing.B) {
	var probs []*Problem
	for _, prof := range gen.Benchmarks() {
		probs = append(probs, benchProblem(b, prof.Name))
	}
	for _, vectors := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("vectors=%d", vectors), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range probs {
					if _, err := p.AverageRandomLeak(1, vectors); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
