package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"svto/internal/gen"
	"svto/internal/netlist"
)

func compile(t *testing.T, c *netlist.Circuit) *netlist.Compiled {
	t.Helper()
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func tiny(t *testing.T) *netlist.Compiled {
	return compile(t, &netlist.Circuit{
		Name:    "tiny",
		Inputs:  []string{"a", "b", "c"},
		Outputs: []string{"out"},
		Gates: []netlist.Gate{
			{Name: "n1", Op: netlist.OpNand, Fanin: []string{"a", "b"}},
			{Name: "n2", Op: netlist.OpNot, Fanin: []string{"n1"}},
			{Name: "out", Op: netlist.OpNor, Fanin: []string{"n2", "c"}},
		},
	})
}

func TestEvalTruthTable(t *testing.T) {
	cc := tiny(t)
	// out = NOR(AND(a,b), c) = !(a&b | c)
	for i := 0; i < 8; i++ {
		a, b, c := i&1 == 1, i>>1&1 == 1, i>>2&1 == 1
		vals, err := Eval(cc, []bool{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		want := !(a && b || c)
		if got := vals[cc.NetID["out"]]; got != want {
			t.Errorf("out(%v,%v,%v) = %v, want %v", a, b, c, got, want)
		}
	}
}

func TestEvalArity(t *testing.T) {
	cc := tiny(t)
	if _, err := Eval(cc, []bool{true}); err == nil {
		t.Error("wrong PI width accepted")
	}
	if _, err := Eval3(cc, []Value{X}); err == nil {
		t.Error("wrong PI width accepted in Eval3")
	}
}

func TestGateState(t *testing.T) {
	cc := tiny(t)
	vals := make([]uint64, cc.NumNets())
	if err := EvalInto(cc, []bool{true, false, true}, vals); err != nil {
		t.Fatal(err)
	}
	g := &cc.Gates[0] // NAND(a,b) with a=1,b=0
	if s := GateState(g, vals, 0); s != 0b01 {
		t.Errorf("gate state = %02b, want 01", s)
	}
}

// Property: Eval3 with fully-known inputs agrees with Eval.
func TestEval3MatchesEval(t *testing.T) {
	cc := tiny(t)
	f := func(raw uint8) bool {
		pi2 := []bool{raw&1 == 1, raw>>1&1 == 1, raw>>2&1 == 1}
		pi3 := []Value{FromBool(pi2[0]), FromBool(pi2[1]), FromBool(pi2[2])}
		v2, err := Eval(cc, pi2)
		if err != nil {
			return false
		}
		v3, err := Eval3(cc, pi3)
		if err != nil {
			return false
		}
		for i := range v2 {
			if v3[i] != FromBool(v2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a net that is known (non-X) under a partial assignment keeps the
// same value for every completion of that assignment (X-monotonicity).
func TestEval3Monotone(t *testing.T) {
	cc := tiny(t)
	f := func(known, values uint8) bool {
		pi3 := make([]Value, 3)
		for i := 0; i < 3; i++ {
			if known>>uint(i)&1 == 1 {
				pi3[i] = FromBool(values>>uint(i)&1 == 1)
			} else {
				pi3[i] = X
			}
		}
		v3, err := Eval3(cc, pi3)
		if err != nil {
			return false
		}
		// Try all completions.
		for c := 0; c < 8; c++ {
			pi2 := make([]bool, 3)
			for i := 0; i < 3; i++ {
				if known>>uint(i)&1 == 1 {
					pi2[i] = values>>uint(i)&1 == 1
				} else {
					pi2[i] = c>>uint(i)&1 == 1
				}
			}
			v2, err := Eval(cc, pi2)
			if err != nil {
				return false
			}
			for n := range v3 {
				if v3[n] != X && v3[n] != FromBool(v2[n]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEval3ControllingValues(t *testing.T) {
	cases := []struct {
		op   netlist.Op
		in   []Value
		want Value
	}{
		{netlist.OpAnd, []Value{False, X}, False},
		{netlist.OpAnd, []Value{True, X}, X},
		{netlist.OpNand, []Value{False, X}, True},
		{netlist.OpOr, []Value{True, X}, True},
		{netlist.OpNor, []Value{True, X}, False},
		{netlist.OpOr, []Value{False, X}, X},
		{netlist.OpXor, []Value{True, X}, X},
		{netlist.OpXnor, []Value{X, False}, X},
		{netlist.OpNot, []Value{X}, X},
		{netlist.OpBuf, []Value{X}, X},
		{netlist.OpAoi21, []Value{X, X, True}, False},
		{netlist.OpAoi21, []Value{False, X, False}, True},
		{netlist.OpAoi21, []Value{X, True, False}, X},
		{netlist.OpOai21, []Value{X, X, False}, True},
		{netlist.OpOai21, []Value{True, X, True}, False},
	}
	for _, tc := range cases {
		if got := Eval3Op(tc.op, tc.in); got != tc.want {
			t.Errorf("%s%v = %s, want %s", tc.op, tc.in, got, tc.want)
		}
	}
}

func TestKnownGateState(t *testing.T) {
	cc := tiny(t)
	v3, err := Eval3(cc, []Value{True, X, False})
	if err != nil {
		t.Fatal(err)
	}
	// NAND(a=1, b=X): unknown state.
	if _, ok := KnownGateState(&cc.Gates[0], v3); ok {
		t.Error("gate with X input reported known")
	}
	v3, err = Eval3(cc, []Value{True, False, False})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := KnownGateState(&cc.Gates[0], v3)
	if !ok || s != 0b01 {
		t.Errorf("known gate state = %02b/%v, want 01/true", s, ok)
	}
}

func TestRandomVectorsDeterministic(t *testing.T) {
	a := RandomVectors(42, 10, 5)
	b := RandomVectors(42, 10, 5)
	if len(a) != 5 || len(a[0]) != 10 {
		t.Fatalf("wrong shape: %dx%d", len(a), len(a[0]))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed produced different vectors")
			}
		}
	}
	c := RandomVectors(43, 10, 5)
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Error("different seeds produced identical vectors")
	}
}

func TestValueString(t *testing.T) {
	if False.String() != "0" || True.String() != "1" || X.String() != "X" {
		t.Error("Value strings wrong")
	}
}

// TestEvalWordsLanes: every lane of a word-wide simulation equals the
// single-vector simulation of that lane's inputs.
func TestEvalWordsLanes(t *testing.T) {
	c, err := gen.RandomLogic("lanes", 3, 20, 300)
	if err != nil {
		t.Fatal(err)
	}
	cc := compile(t, c)
	rng := rand.New(rand.NewSource(5))
	pi := make([]uint64, len(cc.PI))
	for i := range pi {
		pi[i] = rng.Uint64()
	}
	words := make([]uint64, cc.NumNets())
	if err := EvalWords(cc, pi, words); err != nil {
		t.Fatal(err)
	}
	vec := make([]bool, len(cc.PI))
	for lane := uint(0); lane < 64; lane++ {
		for i := range vec {
			vec[i] = pi[i]>>lane&1 == 1
		}
		vals, err := Eval(cc, vec)
		if err != nil {
			t.Fatal(err)
		}
		for net, v := range vals {
			if (words[net]>>lane&1 == 1) != v {
				t.Fatalf("lane %d, net %s: word says %v, Eval %v", lane, cc.NetName[net], !v, v)
			}
		}
	}
	if err := EvalWords(cc, pi[1:], words); err == nil {
		t.Error("wrong PI width accepted")
	}
	if err := EvalWords(cc, pi, words[1:]); err == nil {
		t.Error("wrong value-buffer length accepted")
	}
}

// TestLaneStates: each byte LaneStates packs is GateState of that gate in
// that lane, at every fan-in up to 8 and every group size up to 8; bytes
// past the group are zero.
func TestLaneStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]uint64, 32)
	for i := range vals {
		vals[i] = rng.Uint64()
	}
	var gates []netlist.CGate
	for g := 0; g < 8; g++ {
		gates = append(gates, netlist.CGate{In: rng.Perm(len(vals))[:1+g]})
	}
	for size := 1; size <= 8; size++ {
		group := gates[8-size:]
		var dst [64]uint64
		LaneStates(group, vals, &dst)
		for lane, w := range dst {
			for g := 0; g < 8; g++ {
				got := uint(w >> (8 * g) & 0xff)
				want := uint(0)
				if g < size {
					want = GateState(&group[g], vals, uint(lane))
				}
				if got != want {
					t.Errorf("size %d, lane %d, gate %d: state %08b, want %08b", size, lane, g, got, want)
				}
			}
		}
	}
}

// TestRandomWordsMatchVectors: blocks of RandomWords replay the
// RandomVectors sequence, which is one rng.Intn(2) draw per input, vector
// by vector.
func TestRandomWordsMatchVectors(t *testing.T) {
	const width = 10
	for _, count := range []int{1, 63, 64, 65, 130} {
		want := RandomVectors(2004, width, count)
		draw := rand.New(rand.NewSource(2004))
		for _, vec := range want {
			for i, v := range vec {
				if v != (draw.Intn(2) == 1) {
					t.Fatalf("RandomVectors left the Intn(2) sequence at input %d", i)
				}
			}
		}
		rng := rand.New(rand.NewSource(2004))
		pi := make([]uint64, width)
		for done := 0; done < count; done += 64 {
			n := min(64, count-done)
			RandomWords(rng, pi, n)
			for lane := 0; lane < 64; lane++ {
				for i := range pi {
					got := pi[i]>>lane&1 == 1
					if lane >= n {
						if got {
							t.Fatalf("count %d: lane %d past the block is set", count, lane)
						}
						continue
					}
					if got != want[done+lane][i] {
						t.Fatalf("count %d: vector %d input %d differs", count, done+lane, i)
					}
				}
			}
		}
	}
}
