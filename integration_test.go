package svto

// Cross-module integration tests: the full flow from circuit generation
// through .bench round-trip, technology mapping, library construction,
// timing and optimization.

import (
	"bytes"
	"math"
	"testing"

	"svto/internal/core"
	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sim"
	"svto/internal/sta"
	"svto/internal/tech"
)

// TestEndToEndBenchRoundTripOptimization checks that a generated benchmark,
// serialized to .bench and parsed back, optimizes to the identical result.
func TestEndToEndBenchRoundTripOptimization(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, orig); err != nil {
		t.Fatal(err)
	}
	parsed, err := netlist.ReadBench(&buf, "c432")
	if err != nil {
		t.Fatal(err)
	}

	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optimize := func(c *netlist.Circuit) *core.Solution {
		p, err := core.NewProblem(c, lib, sta.DefaultConfig(), core.ObjTotal)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	a, b := optimize(orig), optimize(parsed)
	if math.Abs(a.Leak-b.Leak) > 1e-9 {
		t.Errorf("round-tripped circuit optimizes differently: %.3f vs %.3f nA", a.Leak, b.Leak)
	}
	if math.Abs(a.Delay-b.Delay) > 1e-9 {
		t.Errorf("round-tripped circuit times differently: %.3f vs %.3f ps", a.Delay, b.Delay)
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			t.Fatalf("sleep vectors differ at input %d", i)
		}
	}
}

// TestSolutionSimulationConsistency verifies that the solution's recorded
// per-gate choices are consistent with a fresh simulation of its sleep
// vector: each gate's choice leakage equals the version leakage at the
// template state reached through the choice's pin permutation.
func TestSolutionSimulationConsistency(t *testing.T) {
	prof, err := gen.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]uint64, p.CC.NumNets())
	if err := sim.EvalInto(p.CC, sol.State, vals); err != nil {
		t.Fatal(err)
	}
	for gi := range p.CC.Gates {
		g := &p.CC.Gates[gi]
		instState := sim.GateState(g, vals, 0)
		ch := sol.Choices[gi]
		// Route the instance state through the permutation.
		tplState := uint(0)
		for pin := range g.In {
			if instState>>uint(pin)&1 == 1 {
				tplState |= 1 << uint(ch.TemplatePin(pin))
			}
		}
		if tplState != ch.TemplateState {
			t.Fatalf("gate %d: template state %0b != recorded %0b", gi, tplState, ch.TemplateState)
		}
		if got := ch.Version.Leak[tplState]; math.Abs(got-ch.Leak) > 1e-9 {
			t.Fatalf("gate %d: leak mismatch %.3f vs %.3f", gi, got, ch.Leak)
		}
	}
}

// TestTechniqueLadder checks the paper's headline ordering on a mid-size
// circuit: average > state-only > Vt+state > proposed, and the proposed
// method's delay stays within its budget while all-slow roughly doubles
// delay.
func TestTechniqueLadder(t *testing.T) {
	prof, err := gen.ByName("c1908")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Dmax / p.Dmin; r < 1.5 || r > 2.5 {
		t.Errorf("Dmax/Dmin = %.2f, want ~2", r)
	}
	avg, err := p.AverageRandomLeak(7, 2000)
	if err != nil {
		t.Fatal(err)
	}
	so, err := solve(p, core.Options{Algorithm: core.AlgStateOnly})
	if err != nil {
		t.Fatal(err)
	}
	vtOpt := library.DefaultOptions()
	vtOpt.VtOnly = true
	vtLib, err := library.Cached(tech.Default(), vtOpt)
	if err != nil {
		t.Fatal(err)
	}
	pvt, err := core.NewProblem(circ, vtLib, sta.DefaultConfig(), core.ObjIsubOnly)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := solve(pvt, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !(avg > so.Leak*0.9 && so.Leak > vt.Leak && vt.Leak > h1.Leak) {
		t.Errorf("technique ladder violated: avg=%.0f state=%.0f vt=%.0f heu1=%.0f",
			avg, so.Leak, vt.Leak, h1.Leak)
	}
	if h1.Delay > p.Budget(0.05)+1e-6 {
		t.Errorf("heu1 delay %.1f exceeds budget %.1f", h1.Delay, p.Budget(0.05))
	}
	// Headline factor: >= 3X at 5% on this profile.
	if x := avg / h1.Leak; x < 3 {
		t.Errorf("reduction %.1fX below expectation", x)
	}
}

// TestLibraryPoliciesEndToEnd runs one circuit through all four Table-5
// library policies and checks the paper's finding that the reduced
// libraries stay close to the full one.
func TestLibraryPoliciesEndToEnd(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	policies := []library.Options{library.DefaultOptions(), library.TwoOption()}
	u4 := library.DefaultOptions()
	u4.UniformStack = true
	u2 := library.TwoOption()
	u2.UniformStack = true
	policies = append(policies, u4, u2)

	var leaks []float64
	for _, opt := range policies {
		lib, err := library.Cached(tech.Default(), opt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		leaks = append(leaks, sol.Leak)
	}
	base := leaks[0]
	for i, l := range leaks {
		if l > base*1.9 || l < base*0.6 {
			t.Errorf("policy %d leak %.0f too far from 4-option %.0f", i, l, base)
		}
	}
}
