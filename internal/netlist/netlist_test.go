package netlist

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// tiny returns a small valid mapped circuit:
//
//	n1 = NAND(a, b); n2 = NOT(n1); out = NOR(n2, c)
func tiny() *Circuit {
	return &Circuit{
		Name:    "tiny",
		Inputs:  []string{"a", "b", "c"},
		Outputs: []string{"out"},
		Gates: []Gate{
			{Name: "n1", Op: OpNand, Fanin: []string{"a", "b"}},
			{Name: "n2", Op: OpNot, Fanin: []string{"n1"}},
			{Name: "out", Op: OpNor, Fanin: []string{"n2", "c"}},
		},
	}
}

func TestCompile(t *testing.T) {
	cc, err := tiny().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cc.NumNets() != 6 {
		t.Errorf("nets = %d, want 6", cc.NumNets())
	}
	if len(cc.PI) != 3 || len(cc.PO) != 1 {
		t.Errorf("PI/PO = %d/%d, want 3/1", len(cc.PI), len(cc.PO))
	}
	// Topological order: each gate's inputs are defined before it.
	seen := map[int]bool{}
	for _, pi := range cc.PI {
		seen[pi] = true
	}
	for _, g := range cc.Gates {
		for _, in := range g.In {
			if !seen[in] {
				t.Fatalf("gate %d reads net %d before it is driven", g.Index, in)
			}
		}
		seen[g.Out] = true
	}
	if !cc.IsPO[cc.NetID["out"]] {
		t.Error("out not marked as PO")
	}
	if cc.GateOfNet[cc.NetID["a"]] != -1 {
		t.Error("PI should have no driving gate")
	}
	if cc.GateOfNet[cc.NetID["out"]] < 0 {
		t.Error("out should have a driving gate")
	}
	if len(cc.Fanout[cc.NetID["n1"]]) != 1 {
		t.Errorf("n1 fanout = %d, want 1", len(cc.Fanout[cc.NetID["n1"]]))
	}
}

func TestCompileRejectsBadCircuits(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Circuit)
	}{
		{"no inputs", func(c *Circuit) { c.Inputs = nil }},
		{"no outputs", func(c *Circuit) { c.Outputs = nil }},
		{"undriven output", func(c *Circuit) { c.Outputs = []string{"ghost"} }},
		{"undriven fanin", func(c *Circuit) { c.Gates[0].Fanin[0] = "ghost" }},
		{"double driver", func(c *Circuit) { c.Gates[1].Name = "n1" }},
		{"pi redriven", func(c *Circuit) { c.Gates[0].Name = "a" }},
		{"bad fanin count", func(c *Circuit) { c.Gates[1].Fanin = []string{"n1", "a"} }},
		{"duplicate fanin", func(c *Circuit) { c.Gates[0].Fanin = []string{"a", "a"} }},
		{"cycle", func(c *Circuit) {
			c.Gates[0].Fanin = []string{"a", "out"}
		}},
	}
	for _, tc := range cases {
		c := tiny()
		tc.mut(c)
		if _, err := c.Compile(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTopologicalOrderWithShuffledGates(t *testing.T) {
	c := tiny()
	// Reverse gate declaration order; compile must still succeed.
	c.Gates[0], c.Gates[2] = c.Gates[2], c.Gates[0]
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for _, g := range cc.Gates {
		pos[g.Out] = g.Index
	}
	if pos[cc.NetID["n1"]] > pos[cc.NetID["n2"]] || pos[cc.NetID["n2"]] > pos[cc.NetID["out"]] {
		t.Error("not topologically sorted")
	}
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		in   []bool
		want bool
	}{
		{OpNot, []bool{true}, false},
		{OpBuf, []bool{true}, true},
		{OpAnd, []bool{true, true}, true},
		{OpAnd, []bool{true, false}, false},
		{OpNand, []bool{true, true}, false},
		{OpNand, []bool{false, true}, true},
		{OpOr, []bool{false, false}, false},
		{OpNor, []bool{false, false}, true},
		{OpXor, []bool{true, true}, false},
		{OpXor, []bool{true, false}, true},
		{OpXor, []bool{true, true, true}, true},
		{OpXnor, []bool{true, false}, false},
		{OpAoi21, []bool{true, true, false}, false},
		{OpAoi21, []bool{true, false, false}, true},
		{OpAoi21, []bool{false, false, true}, false},
		{OpOai21, []bool{false, false, true}, true},
		{OpOai21, []bool{true, false, true}, false},
		{OpOai21, []bool{true, true, false}, true},
	}
	for _, tc := range cases {
		in := make([]uint64, len(tc.in))
		for k, v := range tc.in {
			if v {
				in[k] = 1
			}
		}
		if got := tc.op.EvalWord(in)&1 == 1; got != tc.want {
			t.Errorf("%s%v = %v, want %v", tc.op, tc.in, got, tc.want)
		}
	}
}

// truth is the per-vector definition of each op, written independently of
// EvalWord.
func truth(o Op, in []bool) bool {
	some, every, odd := false, true, false
	for _, b := range in {
		some, every, odd = some || b, every && b, odd != b
	}
	switch o {
	case OpNot:
		return !in[0]
	case OpBuf:
		return in[0]
	case OpAnd:
		return every
	case OpNand:
		return !every
	case OpOr:
		return some
	case OpNor:
		return !some
	case OpXor:
		return odd
	case OpXnor:
		return !odd
	case OpAoi21:
		return !(in[0] && in[1] || in[2])
	case OpOai21:
		return !((in[0] || in[1]) && in[2])
	case OpAoi22:
		return !(in[0] && in[1] || in[2] && in[3])
	case OpOai22:
		return !((in[0] || in[1]) && (in[2] || in[3]))
	}
	panic("truth: unknown op")
}

// TestEvalWordLanes checks EvalWord lane by lane against the truth table of
// every op at every legal fan-in: the 2^n input combinations are spread over
// the lanes of as many words as they fill, and each lane must give the op of
// its own combination.
func TestEvalWordLanes(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		lo, hi := op.FaninRange()
		for n := lo; n <= hi; n++ {
			combos := 1 << n
			for base := 0; base < combos; base += 64 {
				in := make([]uint64, n)
				for lane := 0; lane < 64; lane++ {
					combo := (base + lane) % combos
					for k := range in {
						in[k] |= uint64(combo>>k&1) << lane
					}
				}
				got := op.EvalWord(in)
				for lane := 0; lane < 64; lane++ {
					combo := (base + lane) % combos
					bits := make([]bool, n)
					for k := range bits {
						bits[k] = combo>>k&1 == 1
					}
					if want := truth(op, bits); (got>>lane&1 == 1) != want {
						t.Errorf("%s/%d inputs %0*b (lane %d) = %v, want %v",
							op, n, n, combo, lane, !want, want)
					}
				}
			}
		}
	}
}

func TestCellName(t *testing.T) {
	cases := []struct {
		g    Gate
		want string
	}{
		{Gate{Op: OpNot, Fanin: []string{"a"}}, "INV"},
		{Gate{Op: OpNand, Fanin: []string{"a", "b"}}, "NAND2"},
		{Gate{Op: OpNand, Fanin: []string{"a", "b", "c", "d"}}, "NAND4"},
		{Gate{Op: OpNor, Fanin: []string{"a", "b", "c"}}, "NOR3"},
		{Gate{Op: OpAoi21, Fanin: []string{"a", "b", "c"}}, "AOI21"},
		{Gate{Op: OpOai21, Fanin: []string{"a", "b", "c"}}, "OAI21"},
		{Gate{Op: OpAnd, Fanin: []string{"a", "b"}}, ""},
		{Gate{Op: OpXor, Fanin: []string{"a", "b"}}, ""},
		{Gate{Op: OpNand, Fanin: []string{"a", "b", "c", "d", "e"}}, ""},
	}
	for _, tc := range cases {
		if got := tc.g.CellName(); got != tc.want {
			t.Errorf("%s/%d: CellName = %q, want %q", tc.g.Op, len(tc.g.Fanin), got, tc.want)
		}
	}
	if tiny().Mapped() != true {
		t.Error("tiny should be mapped")
	}
	c := tiny()
	c.Gates[0].Op = OpXor
	if c.Mapped() {
		t.Error("xor circuit reported as mapped")
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := tiny()
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBench(&buf, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Inputs) != 3 || len(back.Outputs) != 1 || len(back.Gates) != 3 {
		t.Fatalf("round trip lost structure: %s", back)
	}
	for i := range back.Gates {
		if back.Gates[i].Name != c.Gates[i].Name || back.Gates[i].Op != c.Gates[i].Op {
			t.Errorf("gate %d differs after round trip", i)
		}
		if strings.Join(back.Gates[i].Fanin, ",") != strings.Join(c.Gates[i].Fanin, ",") {
			t.Errorf("gate %d fanin differs after round trip", i)
		}
	}
}

func TestReadBenchISCASStyle(t *testing.T) {
	src := `# c17 (ISCAS-85 style)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)

OUTPUT(22)
OUTPUT(23)

10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`
	c, err := ReadBench(strings.NewReader(src), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 || len(c.Gates) != 6 {
		t.Fatalf("c17 parsed wrong: %s", c)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Depth != 3 {
		t.Errorf("c17 depth = %d, want 3", st.Depth)
	}
	if st.ByOp["NAND2"] != 6 {
		t.Errorf("c17 NAND2 count = %d, want 6", st.ByOp["NAND2"])
	}
}

// ISCAS .bench files spell the buffer BUFF; it reads as OpBuf and is
// written back as BUF.
func TestReadBenchBUFF(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(b)\nb = BUFF(a)\n"
	c, err := ReadBench(strings.NewReader(src), "buff")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 1 || c.Gates[0].Op != OpBuf {
		t.Fatalf("BUFF parsed wrong: %s", c)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "b = BUF(a)") {
		t.Errorf("written netlist lacks %q:\n%s", "b = BUF(a)", buf.String())
	}
}

func TestReadBenchErrors(t *testing.T) {
	bad := []string{
		"INPUT()",
		"G1 = FROB(G2)",
		"G1 = NAND(G2",
		"= NAND(a, b)",
		"G1 = NAND(,)",
		"INPUT(a)\nG1 = NOT(a)\n", // no outputs
	}
	for i, src := range bad {
		if _, err := ReadBench(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("bad source %d accepted", i)
		}
	}
}

func TestParseOpRoundTrip(t *testing.T) {
	f := func(raw uint8) bool {
		op := Op(raw % NumOps)
		back, err := ParseOp(op.String())
		return err == nil && back == op
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	c := tiny()
	s := c.String()
	for _, want := range []string{"tiny", "in:3", "out:1", "gates:3", "NAND:1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
