// Package netlist represents combinational gate-level circuits: a named
// netlist of single-output gates over primary inputs and outputs, with
// validation, topological compilation for the simulation/timing/optimization
// layers, and ISCAS-85 ".bench" reading and writing.
package netlist

import (
	"fmt"
	"sort"
)

// Op is a gate operation.  Generic logic ops (AND/OR/XOR/...) appear in
// freshly generated or parsed circuits; the technology mapper rewrites them
// into the library-backed subset (NOT, NAND*, NOR*, AOI21, OAI21).
type Op uint8

const (
	OpNot Op = iota
	OpBuf
	OpAnd
	OpOr
	OpNand
	OpNor
	OpXor
	OpXnor
	// OpAoi21 computes !(in0&in1 | in2); OpOai21 computes !((in0|in1) & in2).
	OpAoi21
	OpOai21
	// OpAoi22 computes !(in0&in1 | in2&in3); OpOai22 computes
	// !((in0|in1) & (in2|in3)).
	OpAoi22
	OpOai22
)

// NumOps is the number of defined operations.
const NumOps = 12

var opNames = map[Op]string{
	OpNot: "NOT", OpBuf: "BUF", OpAnd: "AND", OpOr: "OR",
	OpNand: "NAND", OpNor: "NOR", OpXor: "XOR", OpXnor: "XNOR",
	OpAoi21: "AOI21", OpOai21: "OAI21", OpAoi22: "AOI22", OpOai22: "OAI22",
}

// String returns the .bench-style op name.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// ParseOp converts a .bench op name (case-insensitive handled by caller).
// It also accepts BUFF, the ISCAS spelling of BUF.
func ParseOp(s string) (Op, error) {
	if s == "BUFF" {
		return OpBuf, nil
	}
	for op, n := range opNames {
		if n == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("netlist: unknown op %q", s)
}

// FaninRange returns the legal fan-in bounds of the op.
func (o Op) FaninRange() (min, max int) {
	switch o {
	case OpNot, OpBuf:
		return 1, 1
	case OpAoi21, OpOai21:
		return 3, 3
	case OpAoi22, OpOai22:
		return 4, 4
	default:
		return 2, 8
	}
}

// EvalWord computes the op lane by lane over 64-lane input words: bit j of
// the result is the op applied to bit j of every in[k].  This is the one
// definition of each op's logic; a single vector is lane 0.
func (o Op) EvalWord(in []uint64) uint64 {
	switch o {
	case OpNot:
		return ^in[0]
	case OpBuf:
		return in[0]
	case OpAnd, OpNand:
		v := ^uint64(0)
		for _, w := range in {
			v &= w
		}
		if o == OpNand {
			return ^v
		}
		return v
	case OpOr, OpNor:
		v := uint64(0)
		for _, w := range in {
			v |= w
		}
		if o == OpNor {
			return ^v
		}
		return v
	case OpXor, OpXnor:
		v := uint64(0)
		for _, w := range in {
			v ^= w
		}
		if o == OpXnor {
			return ^v
		}
		return v
	case OpAoi21:
		return ^(in[0]&in[1] | in[2])
	case OpOai21:
		return ^((in[0] | in[1]) & in[2])
	case OpAoi22:
		return ^(in[0]&in[1] | in[2]&in[3])
	case OpOai22:
		return ^((in[0] | in[1]) & (in[2] | in[3]))
	default:
		// invariant: unreachable — every Op value is produced by ParseOp or
		// the techmap rewrites, both of which only emit the cases above; an
		// unknown op here means memory corruption, not bad input.
		panic(fmt.Sprintf("netlist: eval of unknown op %d", uint8(o)))
	}
}

// Gate is one single-output gate: its output net name, operation and input
// net names (order significant for AOI21/OAI21).
type Gate struct {
	Name  string
	Op    Op
	Fanin []string
}

// Circuit is a combinational netlist.
type Circuit struct {
	Name    string
	Inputs  []string // primary input net names
	Outputs []string // primary output net names (each driven by a gate or PI)
	Gates   []Gate
}

// CellName returns the library cell implementing a mapped gate, or "" if
// the op is not directly library-backed.
func (g *Gate) CellName() string {
	switch g.Op {
	case OpNot:
		return "INV"
	case OpNand:
		if n := len(g.Fanin); n >= 2 && n <= 4 {
			return fmt.Sprintf("NAND%d", n)
		}
	case OpNor:
		if n := len(g.Fanin); n >= 2 && n <= 4 {
			return fmt.Sprintf("NOR%d", n)
		}
	case OpAoi21:
		return "AOI21"
	case OpOai21:
		return "OAI21"
	case OpAoi22:
		return "AOI22"
	case OpOai22:
		return "OAI22"
	}
	return ""
}

// Mapped reports whether every gate is library-backed.
func (c *Circuit) Mapped() bool {
	for i := range c.Gates {
		if c.Gates[i].CellName() == "" {
			return false
		}
	}
	return true
}

// Stats summarizes a circuit.
type Stats struct {
	Inputs, Outputs, Gates int
	ByOp                   map[string]int
	Depth                  int // levels of the longest PI->PO path
}

// Stats computes summary statistics; the circuit must compile.
func (c *Circuit) Stats() (Stats, error) {
	cc, err := c.Compile()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		Gates:   len(c.Gates),
		ByOp:    map[string]int{},
	}
	for i := range c.Gates {
		key := c.Gates[i].CellName()
		if key == "" {
			key = c.Gates[i].Op.String()
		}
		s.ByOp[key]++
	}
	level := make([]int, cc.NumNets())
	for _, g := range cc.Gates {
		lv := 0
		for _, in := range g.In {
			if level[in]+1 > lv {
				lv = level[in] + 1
			}
		}
		level[g.Out] = lv
		if lv > s.Depth {
			s.Depth = lv
		}
	}
	return s, nil
}

// CGate is a compiled gate: integer net ids, topologically ordered.
type CGate struct {
	Index int   // position in Compiled.Gates (and in Circuit.Gates order mapping)
	Orig  int   // index into Circuit.Gates
	Out   int   // output net id
	In    []int // input net ids
	Op    Op
}

// Compiled is the integer-indexed, topologically sorted form of a circuit
// that the simulation, timing and optimization layers operate on.
type Compiled struct {
	Circuit *Circuit
	// NetName[i] is the name of net i.
	NetName []string
	// NetID maps names to net ids.
	NetID map[string]int
	// PI and PO are the primary input/output net ids.
	PI, PO []int
	// Gates is in topological order: every gate's inputs are PIs or
	// outputs of earlier gates.
	Gates []CGate
	// GateOfNet[i] is the index (into Gates) of the gate driving net i,
	// or -1 for primary inputs.
	GateOfNet []int
	// Fanout[i] lists the gates (indexes into Gates) reading net i.
	Fanout [][]int
	// IsPO[i] reports whether net i is a primary output.
	IsPO []bool
}

// NumNets returns the total net count.
func (cc *Compiled) NumNets() int { return len(cc.NetName) }

// Compile validates and topologically sorts the circuit.
func (c *Circuit) Compile() (*Compiled, error) {
	if len(c.Inputs) == 0 {
		return nil, fmt.Errorf("netlist %s: no primary inputs", c.Name)
	}
	cc := &Compiled{Circuit: c, NetID: map[string]int{}}
	addNet := func(name string) int {
		if id, ok := cc.NetID[name]; ok {
			return id
		}
		id := len(cc.NetName)
		cc.NetID[name] = id
		cc.NetName = append(cc.NetName, name)
		return id
	}
	driver := map[string]int{} // net name -> gate index in c.Gates, or -1 for PI
	for _, in := range c.Inputs {
		if _, dup := driver[in]; dup {
			return nil, fmt.Errorf("netlist %s: duplicate input %q", c.Name, in)
		}
		driver[in] = -1
		cc.PI = append(cc.PI, addNet(in))
	}
	for gi := range c.Gates {
		g := &c.Gates[gi]
		if _, dup := driver[g.Name]; dup {
			return nil, fmt.Errorf("netlist %s: net %q driven twice", c.Name, g.Name)
		}
		driver[g.Name] = gi
		minF, maxF := g.Op.FaninRange()
		if len(g.Fanin) < minF || len(g.Fanin) > maxF {
			return nil, fmt.Errorf("netlist %s: gate %q: %s with %d inputs", c.Name, g.Name, g.Op, len(g.Fanin))
		}
		seen := map[string]bool{}
		for _, in := range g.Fanin {
			if seen[in] {
				return nil, fmt.Errorf("netlist %s: gate %q: duplicate fanin %q", c.Name, g.Name, in)
			}
			seen[in] = true
		}
	}
	for gi := range c.Gates {
		for _, in := range c.Gates[gi].Fanin {
			if _, ok := driver[in]; !ok {
				return nil, fmt.Errorf("netlist %s: gate %q reads undriven net %q", c.Name, c.Gates[gi].Name, in)
			}
		}
	}
	if len(c.Outputs) == 0 {
		return nil, fmt.Errorf("netlist %s: no primary outputs", c.Name)
	}
	for _, out := range c.Outputs {
		if _, ok := driver[out]; !ok {
			return nil, fmt.Errorf("netlist %s: output %q is undriven", c.Name, out)
		}
	}

	// Topological sort (Kahn) over gates.
	pending := make([]int, len(c.Gates)) // unresolved fanin count per gate
	readers := map[string][]int{}        // net name -> gate indexes reading it
	var ready []int
	for gi := range c.Gates {
		n := 0
		for _, in := range c.Gates[gi].Fanin {
			if driver[in] != -1 {
				n++
			}
			readers[in] = append(readers[in], gi)
		}
		pending[gi] = n
		if n == 0 {
			ready = append(ready, gi)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, len(c.Gates))
	for len(ready) > 0 {
		gi := ready[0]
		ready = ready[1:]
		order = append(order, gi)
		for _, reader := range readers[c.Gates[gi].Name] {
			pending[reader]--
			if pending[reader] == 0 {
				ready = append(ready, reader)
			}
		}
	}
	if len(order) != len(c.Gates) {
		return nil, fmt.Errorf("netlist %s: combinational cycle detected", c.Name)
	}

	cc.Gates = make([]CGate, len(order))
	for pos, gi := range order {
		g := &c.Gates[gi]
		out := addNet(g.Name)
		in := make([]int, len(g.Fanin))
		for k, name := range g.Fanin {
			in[k] = addNet(name)
		}
		cc.Gates[pos] = CGate{Index: pos, Orig: gi, Out: out, In: in, Op: g.Op}
	}
	cc.GateOfNet = make([]int, len(cc.NetName))
	for i := range cc.GateOfNet {
		cc.GateOfNet[i] = -1
	}
	cc.Fanout = make([][]int, len(cc.NetName))
	for pos := range cc.Gates {
		g := &cc.Gates[pos]
		cc.GateOfNet[g.Out] = pos
		for _, in := range g.In {
			cc.Fanout[in] = append(cc.Fanout[in], pos)
		}
	}
	cc.IsPO = make([]bool, len(cc.NetName))
	for _, out := range c.Outputs {
		id := cc.NetID[out]
		cc.PO = append(cc.PO, id)
		cc.IsPO[id] = true
	}
	return cc, nil
}
