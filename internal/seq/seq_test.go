package seq

import (
	"context"
	"strings"
	"testing"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/tech"
	"svto/internal/techmap"
)

// toggler is a small sequential design: a 3-bit state machine with an
// enable, ISCAS-89 .bench style.
const toggler = `# toggler
INPUT(en)
INPUT(clr)
OUTPUT(q2)

q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)

nclr = NOT(clr)
t0 = XOR(q0, en)
d0 = AND(t0, nclr)
c0 = AND(q0, en)
t1 = XOR(q1, c0)
d1 = AND(t1, nclr)
c1 = AND(q1, c0)
t2 = XOR(q2, c1)
d2 = AND(t2, nclr)
`

func TestReadBench(t *testing.T) {
	c, err := ReadBench(strings.NewReader(toggler), "toggler")
	if err != nil {
		t.Fatal(err)
	}
	if c.PIs != 2 || c.POs != 1 || c.NumState() != 3 {
		t.Fatalf("interface wrong: PIs=%d POs=%d FFs=%d", c.PIs, c.POs, c.NumState())
	}
	// Core inputs: en, clr, q0, q1, q2.
	if len(c.Comb.Inputs) != 5 {
		t.Errorf("core inputs = %d, want 5", len(c.Comb.Inputs))
	}
	// Core outputs: q2 (true PO), d0, d1, d2.
	if len(c.Comb.Outputs) != 4 {
		t.Errorf("core outputs = %d, want 4", len(c.Comb.Outputs))
	}
	if c.FFs[0].Out != "q0" || c.FFs[0].In != "d0" {
		t.Errorf("FF0 = %+v", c.FFs[0])
	}
}

// The register-cut core flows through the whole standby optimization: the
// resulting sleep vector splits into primary-input and flip-flop parts.
func TestSequentialStandbyFlow(t *testing.T) {
	c, err := ReadBench(strings.NewReader(toggler), "toggler")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := techmap.Map(c.Comb)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(mapped, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Solve(context.Background(),
		core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pi, ff, err := c.SleepVector(sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if len(pi) != 2 || len(ff) != 3 {
		t.Fatalf("sleep vector split %d/%d, want 2/3", len(pi), len(ff))
	}
	avg, err := p.AverageRandomLeak(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Leak >= avg {
		t.Errorf("optimization should beat average: %.1f vs %.1f", sol.Leak, avg)
	}
}

func TestSleepVectorArity(t *testing.T) {
	c, err := ReadBench(strings.NewReader(toggler), "toggler")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SleepVector([]bool{true}); err == nil {
		t.Error("wrong width accepted")
	}
}

func TestReadBenchErrors(t *testing.T) {
	bad := []string{
		"INPUT(a)\nq = DFF(\n",
		"INPUT(a)\nmalformed line\n",
		"INPUT(a)\nx = FROB(a)\n",
		"INPUT(a)\nx = NOT()\n",
		"INPUT(a)\nOUTPUT(x)\nx = NOT(ghost)\n",
		"INPUT()\n",
	}
	for i, src := range bad {
		if _, err := ReadBench(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("bad source %d accepted", i)
		}
	}
}

// ISCAS .bench files spell the buffer BUFF.
func TestReadBenchBUFF(t *testing.T) {
	src := `INPUT(a)
OUTPUT(q)
q = DFF(b)
b = BUFF(a)
`
	c, err := ReadBench(strings.NewReader(src), "buff")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comb.Gates) != 1 || c.Comb.Gates[0].Op != netlist.OpBuf {
		t.Fatalf("BUFF parsed wrong: %s", c.Comb)
	}
}

func TestFFOutputAsPrimaryOutput(t *testing.T) {
	src := `INPUT(a)
OUTPUT(q)
q = DFF(d)
d = NOT(a)
`
	c, err := ReadBench(strings.NewReader(src), "ffpo")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumState() != 1 || c.PIs != 1 {
		t.Fatalf("unexpected cut: %+v", c)
	}
	// q is both a pseudo-input (FF output) and a true PO.
	if _, err := c.Comb.Compile(); err != nil {
		t.Fatal(err)
	}
}
