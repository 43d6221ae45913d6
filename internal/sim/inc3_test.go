package sim

import (
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/netlist"
)

// refBoundTables builds deterministic pseudo-random contribution tables for
// every gate (known per-state values and an unknown fallback), mirroring the
// minChoice/minAny tables the optimizer feeds the engine.
func refBoundTables(cc *netlist.Compiled, seed int64) (known [][]float64, unknown []float64) {
	rng := rand.New(rand.NewSource(seed))
	known = make([][]float64, len(cc.Gates))
	unknown = make([]float64, len(cc.Gates))
	for gi := range cc.Gates {
		states := 1 << uint(len(cc.Gates[gi].In))
		row := make([]float64, states)
		min := 0.0
		for s := range row {
			row[s] = 1 + 100*rng.Float64()
			if s == 0 || row[s] < min {
				min = row[s]
			}
		}
		known[gi] = row
		unknown[gi] = min
	}
	return known, unknown
}

// refBound is the slow-path reference: a fresh Eval3 pass summed in gate
// index order — known state lookup, PatternMin for partial patterns,
// unknown for all-X — exactly what Inc3.Bounds must reproduce bit for bit.
func refBound(t *testing.T, cc *netlist.Compiled, pi []Value, known [][]float64, unknown []float64) float64 {
	t.Helper()
	vals, err := Eval3(cc, pi)
	if err != nil {
		t.Fatal(err)
	}
	b := 0.0
	for gi := range cc.Gates {
		g := &cc.Gates[gi]
		state, xmask := GateState3(g, vals)
		switch {
		case xmask == 0:
			b += known[gi][state]
		case xmask == (uint(1)<<uint(len(g.In)))-1:
			b += unknown[gi]
		default:
			b += PatternMin(known[gi], state, xmask)
		}
	}
	return b
}

// TestInc3MatchesEval3 drives a two-table incremental engine through
// random assign/undo sequences on circuits of increasing size and checks,
// after every operation, that each table's running bound matches the
// full-resimulation reference over that table exactly (==, not within an
// epsilon): the engine must be a pure evaluation-strategy change, and the
// second table must neither disturb the first nor lag behind it.
func TestInc3MatchesEval3(t *testing.T) {
	circuits := map[string]*netlist.Compiled{}

	small := &netlist.Circuit{
		Name:    "inc3small",
		Inputs:  []string{"a", "b", "c", "d"},
		Outputs: []string{"o1", "o2"},
		Gates: []netlist.Gate{
			{Name: "n1", Op: netlist.OpNand, Fanin: []string{"a", "b"}},
			{Name: "n2", Op: netlist.OpNor, Fanin: []string{"b", "c"}},
			{Name: "n3", Op: netlist.OpAoi21, Fanin: []string{"n1", "n2", "d"}},
			{Name: "o1", Op: netlist.OpNand, Fanin: []string{"n1", "n3"}},
			{Name: "o2", Op: netlist.OpXor, Fanin: []string{"n2", "n3"}},
		},
	}
	cc, err := small.Compile()
	if err != nil {
		t.Fatal(err)
	}
	circuits["small"] = cc

	for _, name := range []string{"c432", "c880"} {
		prof, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		circ, err := prof.Build()
		if err != nil {
			t.Fatal(err)
		}
		cc, err := circ.Compile()
		if err != nil {
			t.Fatal(err)
		}
		circuits[name] = cc
	}

	for name, cc := range circuits {
		t.Run(name, func(t *testing.T) {
			known, unknown := refBoundTables(cc, 7)
			known2, unknown2 := refBoundTables(cc, 13)
			eng, err := NewInc3Pair(cc, known, unknown, known2, unknown2)
			if err != nil {
				t.Fatal(err)
			}

			pi := make([]Value, len(cc.PI))
			for i := range pi {
				pi[i] = X
			}
			// Mirror stack of assignments so undos can be replayed on pi.
			type frame struct {
				idx int
				old Value
			}
			var stack []frame

			check := func(op string) {
				t.Helper()
				want := refBound(t, cc, pi, known, unknown)
				want2 := refBound(t, cc, pi, known2, unknown2)
				if got, got2 := eng.Bounds(); got != want || got2 != want2 {
					t.Fatalf("%s: bounds %v, %v != references %v, %v (depth %d)",
						op, got, got2, want, want2, eng.Depth())
				}
			}
			check("initial")

			rng := rand.New(rand.NewSource(11))
			for step := 0; step < 400; step++ {
				if len(stack) > 0 && (rng.Intn(3) == 0 || len(stack) == len(pi)) {
					f := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					pi[f.idx] = f.old
					eng.Undo()
					check("undo")
					continue
				}
				idx := rng.Intn(len(pi))
				v := Value(rng.Intn(3)) // False, True or X — reassignments included
				stack = append(stack, frame{idx, pi[idx]})
				pi[idx] = v
				eng.Assign(idx, v)
				check("assign")
			}
			// Unwind everything: the engine must land back at the all-X root.
			for len(stack) > 0 {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				pi[f.idx] = f.old
				eng.Undo()
			}
			check("unwound")
			if eng.Depth() != 0 {
				t.Fatalf("depth %d after full unwind", eng.Depth())
			}
			for i := range pi {
				if eng.PI(i) != X {
					t.Fatalf("PI %d is %v after full unwind", i, eng.PI(i))
				}
			}
		})
	}
}

// TestInc3Validation exercises the constructor's table checks.
func TestInc3Validation(t *testing.T) {
	small := &netlist.Circuit{
		Name:    "inc3bad",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"o"},
		Gates: []netlist.Gate{
			{Name: "o", Op: netlist.OpNand, Fanin: []string{"a", "b"}},
		},
	}
	cc, err := small.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInc3(cc, nil, nil); err == nil {
		t.Error("nil tables accepted")
	}
	if _, err := NewInc3(cc, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("short state row accepted (NAND2 needs 4 states)")
	}
	if _, err := NewInc3(cc, [][]float64{{1, 2, 3, 4}}, []float64{1}); err != nil {
		t.Errorf("well-formed tables rejected: %v", err)
	}
	if _, err := NewInc3Pair(cc, [][]float64{{1, 2, 3, 4}}, []float64{1}, [][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("short second-table state row accepted")
	}
}
