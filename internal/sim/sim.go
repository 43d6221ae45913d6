// Package sim provides combinational logic simulation over compiled
// netlists: 2-valued evaluation of 64 vectors per uint64 word (a single
// sleep vector is lane 0; the random-vector baseline fills all 64 lanes),
// 3-valued 0/1/X evaluation (used by the optimizer's state-tree bounds when
// only part of the sleep vector is assigned), and deterministic
// random-vector generation for the average-leakage baseline.
package sim

import (
	"fmt"
	"math/rand"

	"svto/internal/netlist"
)

// Eval computes all net values for the given primary-input assignment.
// The result is indexed by net id.  It is lane 0 of EvalWords.
func Eval(cc *netlist.Compiled, pi []bool) ([]bool, error) {
	words := make([]uint64, cc.NumNets())
	if err := EvalInto(cc, pi, words); err != nil {
		return nil, err
	}
	vals := make([]bool, len(words))
	for net, w := range words {
		vals[net] = w&1 == 1
	}
	return vals, nil
}

// EvalInto simulates one primary-input assignment as lane 0 of the word
// evaluator, writing into a caller-provided buffer of NumNets words and
// allocating nothing — the per-leaf simulation primitive of the optimizer's
// search workers.  Only lane 0 of the result is meaningful; read it with
// GateState(g, vals, 0).
func EvalInto(cc *netlist.Compiled, pi []bool, vals []uint64) error {
	if err := checkWidths(cc, len(pi), len(vals)); err != nil {
		return err
	}
	for i, net := range cc.PI {
		vals[net] = 0
		if pi[i] {
			vals[net] = 1
		}
	}
	evalGates(cc, vals)
	return nil
}

// EvalWords simulates 64 primary-input vectors at once: lane j of pi[i] is
// input i of vector j, and lane j of vals[net] receives net's value under
// vector j.  vals must hold NumNets words.
func EvalWords(cc *netlist.Compiled, pi, vals []uint64) error {
	if err := checkWidths(cc, len(pi), len(vals)); err != nil {
		return err
	}
	for i, net := range cc.PI {
		vals[net] = pi[i]
	}
	evalGates(cc, vals)
	return nil
}

func checkWidths(cc *netlist.Compiled, pi, vals int) error {
	if pi != len(cc.PI) {
		return fmt.Errorf("sim: %d PI values for %d inputs", pi, len(cc.PI))
	}
	if vals != cc.NumNets() {
		return fmt.Errorf("sim: %d value slots for %d nets", vals, cc.NumNets())
	}
	return nil
}

// evalGates is the 2-valued gate loop: it computes every gate output word
// in topological order from the primary-input words already in vals.
func evalGates(cc *netlist.Compiled, vals []uint64) {
	var in [8]uint64
	for gi := range cc.Gates {
		g := &cc.Gates[gi]
		buf := in[:len(g.In)]
		for k, net := range g.In {
			buf[k] = vals[net]
		}
		vals[g.Out] = g.Op.EvalWord(buf)
	}
}

// GateState returns the input-state bitmask of gate g in one lane of the
// net words: bit k is that lane of fan-in k.  This is the index into the
// library's per-state leakage tables.
func GateState(g *netlist.CGate, vals []uint64, lane uint) uint {
	var s uint
	for k, net := range g.In {
		s |= uint(vals[net]>>lane&1) << uint(k)
	}
	return s
}

// spread[b] holds bit i of b in the low bit of byte i.
var spread = func() (t [256]uint64) {
	for b := range t {
		for i := 0; i < 8; i++ {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// LaneStates computes the input states of up to eight consecutive gates in
// all 64 lanes of the net words: byte g of dst[lane] is
// GateState(&gates[g], vals, lane), and bytes past len(gates) are zero.
// Fan-ins number at most 8, so a state fits a byte.  Each gate's states are
// built eight lanes per word, then turned lane by lane with 8×8 byte
// transposes.
func LaneStates(gates []netlist.CGate, vals []uint64, dst *[64]uint64) {
	var m [8][8]uint64 // byte i of m[c][g]: gate g in lane 8c+i
	for g := range gates {
		var p0, p1, p2, p3, p4, p5, p6, p7 uint64
		for k, net := range gates[g].In {
			w := vals[net]
			p0 |= spread[uint8(w)] << k
			p1 |= spread[uint8(w>>8)] << k
			p2 |= spread[uint8(w>>16)] << k
			p3 |= spread[uint8(w>>24)] << k
			p4 |= spread[uint8(w>>32)] << k
			p5 |= spread[uint8(w>>40)] << k
			p6 |= spread[uint8(w>>48)] << k
			p7 |= spread[uint8(w>>56)] << k
		}
		m[0][g], m[1][g], m[2][g], m[3][g] = p0, p1, p2, p3
		m[4][g], m[5][g], m[6][g], m[7][g] = p4, p5, p6, p7
	}
	for c := range m {
		transpose8((*[8]uint64)(dst[8*c:]), &m[c])
	}
}

// transpose8 writes to dst the transpose of the 8×8 byte matrix whose row r
// is m[r] (byte i is column i), swapping 4×4, then 2×2, then single-byte
// off-diagonal blocks.
func transpose8(dst, m *[8]uint64) {
	const m32, m16, m8 = 0x00000000ffffffff, 0x0000ffff0000ffff, 0x00ff00ff00ff00ff
	r0, r1, r2, r3, r4, r5, r6, r7 := m[0], m[1], m[2], m[3], m[4], m[5], m[6], m[7]
	r0, r4 = r0&m32|r4<<32, r0>>32|r4&^m32
	r1, r5 = r1&m32|r5<<32, r1>>32|r5&^m32
	r2, r6 = r2&m32|r6<<32, r2>>32|r6&^m32
	r3, r7 = r3&m32|r7<<32, r3>>32|r7&^m32
	r0, r2 = r0&m16|(r2&m16)<<16, (r0>>16)&m16|r2&^m16
	r1, r3 = r1&m16|(r3&m16)<<16, (r1>>16)&m16|r3&^m16
	r4, r6 = r4&m16|(r6&m16)<<16, (r4>>16)&m16|r6&^m16
	r5, r7 = r5&m16|(r7&m16)<<16, (r5>>16)&m16|r7&^m16
	r0, r1 = r0&m8|(r1&m8)<<8, (r0>>8)&m8|r1&^m8
	r2, r3 = r2&m8|(r3&m8)<<8, (r2>>8)&m8|r3&^m8
	r4, r5 = r4&m8|(r5&m8)<<8, (r4>>8)&m8|r5&^m8
	r6, r7 = r6&m8|(r7&m8)<<8, (r6>>8)&m8|r7&^m8
	*dst = [8]uint64{r0, r1, r2, r3, r4, r5, r6, r7}
}

// Value is a 3-valued logic level.
type Value uint8

const (
	False Value = iota
	True
	X // unknown
)

// String returns "0", "1" or "X".
func (v Value) String() string {
	switch v {
	case False:
		return "0"
	case True:
		return "1"
	default:
		return "X"
	}
}

// FromBool converts a bool to a Value.
func FromBool(b bool) Value {
	if b {
		return True
	}
	return False
}

func and3(a, b Value) Value {
	switch {
	case a == False || b == False:
		return False
	case a == True && b == True:
		return True
	default:
		return X
	}
}

func or3(a, b Value) Value {
	switch {
	case a == True || b == True:
		return True
	case a == False && b == False:
		return False
	default:
		return X
	}
}

func not3(a Value) Value {
	switch a {
	case False:
		return True
	case True:
		return False
	default:
		return X
	}
}

func xor3(a, b Value) Value {
	if a == X || b == X {
		return X
	}
	if (a == True) != (b == True) {
		return True
	}
	return False
}

// Eval3Op computes an op under 3-valued logic with full X-propagation of
// controlling values (an AND with any 0 input is 0 even if others are X).
func Eval3Op(op netlist.Op, in []Value) Value {
	switch op {
	case netlist.OpNot:
		return not3(in[0])
	case netlist.OpBuf:
		return in[0]
	case netlist.OpAnd, netlist.OpNand:
		v := True
		for _, b := range in {
			v = and3(v, b)
		}
		if op == netlist.OpNand {
			return not3(v)
		}
		return v
	case netlist.OpOr, netlist.OpNor:
		v := False
		for _, b := range in {
			v = or3(v, b)
		}
		if op == netlist.OpNor {
			return not3(v)
		}
		return v
	case netlist.OpXor, netlist.OpXnor:
		v := False
		for _, b := range in {
			v = xor3(v, b)
		}
		if op == netlist.OpXnor {
			return not3(v)
		}
		return v
	case netlist.OpAoi21:
		return not3(or3(and3(in[0], in[1]), in[2]))
	case netlist.OpOai21:
		return not3(and3(or3(in[0], in[1]), in[2]))
	case netlist.OpAoi22:
		return not3(or3(and3(in[0], in[1]), and3(in[2], in[3])))
	case netlist.OpOai22:
		return not3(and3(or3(in[0], in[1]), or3(in[2], in[3])))
	default:
		// invariant: unreachable — the op set is closed (ParseOp/techmap emit
		// only the cases above), so this cannot be triggered by circuit input.
		panic(fmt.Sprintf("sim: eval3 of unknown op %d", uint8(op)))
	}
}

// Eval3 computes all net values under a partial primary-input assignment.
func Eval3(cc *netlist.Compiled, pi []Value) ([]Value, error) {
	if len(pi) != len(cc.PI) {
		return nil, fmt.Errorf("sim: %d PI values for %d inputs", len(pi), len(cc.PI))
	}
	vals := make([]Value, cc.NumNets())
	for i, net := range cc.PI {
		vals[net] = pi[i]
	}
	in := make([]Value, 8)
	for _, g := range cc.Gates {
		in = in[:len(g.In)]
		for k, net := range g.In {
			in[k] = vals[net]
		}
		vals[g.Out] = Eval3Op(g.Op, in)
	}
	return vals, nil
}

// GateState3 gathers a gate's 3-valued input pattern: state holds the bits
// of fan-ins that are definitely True, xmask the bits that are still X.
// xmask == 0 means the full state is known.
func GateState3(g *netlist.CGate, vals []Value) (state, xmask uint) {
	for k, net := range g.In {
		switch vals[net] {
		case X:
			xmask |= 1 << uint(k)
		case True:
			state |= 1 << uint(k)
		}
	}
	return state, xmask
}

// PatternMin returns the tightest admissible contribution a per-state table
// supports for a partially known input pattern: the minimum of row over
// every completion of the X bits in xmask.  Definite-input bits outside
// xmask are fixed by state.  This dominates the all-states row minimum
// whenever at least one input is known — states inconsistent with the
// assigned inputs no longer drag the contribution down.  The result is a
// pure function of (row, state, xmask); min over a fixed value set is
// order-independent, so every engine computing it over the same row agrees
// bit for bit.
func PatternMin(row []float64, state, xmask uint) float64 {
	m := row[state|xmask]
	for s := (xmask - 1) & xmask; ; s = (s - 1) & xmask {
		if v := row[state|s]; v < m {
			m = v
		}
		if s == 0 {
			break
		}
	}
	return m
}

// RandomVectors generates count deterministic pseudo-random input vectors
// of the given width.
func RandomVectors(seed int64, width, count int) [][]bool {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]bool, count)
	for i := range out {
		v := make([]bool, width)
		for j := range v {
			v[j] = randomBit(rng) == 1
		}
		out[i] = v
	}
	return out
}

// RandomWords draws the next n ≤ 64 vectors of the RandomVectors sequence
// from rng into 64-lane primary-input words: lane j of pi[i] is input i of
// vector j.  Lanes n..63 are zero.  With rng seeded as RandomVectors seeds
// it, successive calls yield the vectors RandomVectors(seed, len(pi), ·)
// returns, in order.
func RandomWords(rng *rand.Rand, pi []uint64, n int) {
	clear(pi)
	for j := 0; j < n; j++ {
		for i := range pi {
			pi[i] |= randomBit(rng) << uint(j)
		}
	}
}

// randomBit is the one random draw behind RandomVectors and RandomWords:
// rng.Intn(2), computed as math/rand computes it for a power-of-two bound
// (bit 32 of Int63) without the calls around it.
func randomBit(rng *rand.Rand) uint64 {
	return uint64(rng.Int63()>>32) & 1
}
