package sim

import (
	"fmt"

	"svto/internal/netlist"
)

// Inc3 is an incremental 3-valued bound engine: it maintains the net values
// of a partial primary-input assignment together with each gate's current
// contribution to an additive lower bound (a caller-supplied per-gate table
// indexed by the gate's known input state; while some fan-ins are X the
// gate contributes the pattern minimum — the table minimum over every
// completion of the X inputs — so states already ruled out by the assigned
// inputs cannot drag the bound down).
//
// Flipping one primary input with Assign re-evaluates only the gates inside
// the input's fanout cone, event-driven in topological order, and records an
// undo trail so Undo restores the previous assignment exactly.  After any
// sequence of Assign/Undo calls the engine's state is identical to a fresh
// Eval3 of the same partial assignment — Bound() returns the same float64,
// bit for bit, as summing the contribution table over Eval3's values in gate
// index order, which is what keeps bound-guided searches deterministic when
// they swap full re-simulation for this engine.
//
// The contribution tables are caller-defined, which is what lets one engine
// type serve two different bounds: the search's cheap minChoice/minAny
// leakage tables, and the choice-elimination tables relax.Engine
// precomputes (each entry the cheapest choice the delay budget admits).
// Both obey the same admissibility contract — entry ≤ the leakage of every
// completion consistent with that gate state — so Bound() stays a valid
// lower bound regardless of which table family is plugged in.
//
// The hot path (Assign, Bound, Undo) allocates nothing once the internal
// trails have grown to their working size.  An Inc3 is not safe for
// concurrent use; searches give each worker its own engine.
type Inc3 struct {
	cc *netlist.Compiled
	// known[g][s] is gate g's bound contribution when its input state s is
	// known; partial patterns contribute PatternMin over the row, with
	// unknown[g] — the caller-precomputed row minimum — serving the all-X
	// pattern.
	known   [][]float64
	unknown []float64
	// coarse drops the pattern-minimum refinement: any X fan-in makes the
	// gate contribute unknown[g].  NewInc3Coarse sets it for baselines
	// that must reproduce the classic state-only bound.
	coarse bool

	vals    []Value   // current value of every net
	contrib []float64 // current bound contribution of every gate

	// heap is a binary min-heap over gate indexes: the pending-evaluation
	// queue of the event-driven propagation (topological order == index
	// order in a Compiled netlist).  inHeap dedups pushes.
	heap   []int32
	inHeap []bool
	inBuf  [8]Value // fan-in gather scratch

	// Undo trails: every net value and gate contribution overwritten since
	// the matching Assign, restored in reverse order.
	netTrail     []netSave
	contribTrail []contribSave
	marks        []incMark
}

type netSave struct {
	net int32
	val Value
}

type contribSave struct {
	gate    int32
	contrib float64
}

type incMark struct {
	nets, contribs int32
}

// NewInc3 builds an engine over the compiled netlist with the given
// contribution tables, initialized to the all-X (fully unassigned) input.
// known must hold one row per gate with 2^fanin entries; unknown one entry
// per gate, equal to the minimum of the gate's known row (the all-X
// pattern's contribution — see PatternMin).
func NewInc3(cc *netlist.Compiled, known [][]float64, unknown []float64) (*Inc3, error) {
	if len(known) != len(cc.Gates) || len(unknown) != len(cc.Gates) {
		return nil, fmt.Errorf("sim: contribution tables for %d/%d gates, circuit has %d",
			len(known), len(unknown), len(cc.Gates))
	}
	for gi := range cc.Gates {
		if want := 1 << uint(len(cc.Gates[gi].In)); len(known[gi]) < want {
			return nil, fmt.Errorf("sim: gate %d: %d contribution states, need %d",
				gi, len(known[gi]), want)
		}
	}
	e := &Inc3{
		cc:      cc,
		known:   known,
		unknown: unknown,
		vals:    make([]Value, cc.NumNets()),
		contrib: make([]float64, len(cc.Gates)),
		heap:    make([]int32, 0, len(cc.Gates)),
		inHeap:  make([]bool, len(cc.Gates)),
		marks:   make([]incMark, 0, len(cc.PI)+1),
	}
	for i := range e.vals {
		e.vals[i] = X
	}
	for gi := range cc.Gates {
		v, c := e.evalGate(int32(gi))
		e.vals[cc.Gates[gi].Out] = v
		e.contrib[gi] = c
	}
	return e, nil
}

// NewInc3Coarse builds an engine that contributes unknown[g] whenever any
// fan-in of g is X, instead of the tighter pattern minimum.  The state-only
// comparison baseline uses it: that baseline reproduces the prior
// state-assignment approach, whose published guidance is the coarse bound,
// so tightening it would change the baseline being compared against.
func NewInc3Coarse(cc *netlist.Compiled, known [][]float64, unknown []float64) (*Inc3, error) {
	e, err := NewInc3(cc, known, unknown)
	if err != nil {
		return nil, err
	}
	e.coarse = true
	return e, nil
}

// Depth returns the number of Assign calls not yet undone.
func (e *Inc3) Depth() int { return len(e.marks) }

// PI returns the current value of primary input i.
func (e *Inc3) PI(i int) Value { return e.vals[e.cc.PI[i]] }

// Val returns the current value of a net.
func (e *Inc3) Val(net int) Value { return e.vals[net] }

// Bound returns the additive bound of the current partial assignment: the
// per-gate contributions summed in gate index order, exactly as a full
// re-simulation pass would.
func (e *Inc3) Bound() float64 {
	b := 0.0
	for _, c := range e.contrib {
		b += c
	}
	return b
}

// Assign sets primary input pi to v and propagates the change through its
// fanout cone.  Every Assign pushes one undo frame, even when v equals the
// input's current value, so Assign/Undo calls always pair up.
func (e *Inc3) Assign(pi int, v Value) {
	e.marks = append(e.marks, incMark{int32(len(e.netTrail)), int32(len(e.contribTrail))})
	net := e.cc.PI[pi]
	old := e.vals[net]
	if old == v {
		return
	}
	e.netTrail = append(e.netTrail, netSave{int32(net), old})
	e.vals[net] = v
	for _, g := range e.cc.Fanout[net] {
		e.push(int32(g))
	}
	e.propagate()
}

// Undo reverts the most recent Assign, restoring every net value and gate
// contribution it overwrote.
func (e *Inc3) Undo() {
	m := e.marks[len(e.marks)-1]
	e.marks = e.marks[:len(e.marks)-1]
	for len(e.contribTrail) > int(m.contribs) {
		s := e.contribTrail[len(e.contribTrail)-1]
		e.contribTrail = e.contribTrail[:len(e.contribTrail)-1]
		e.contrib[s.gate] = s.contrib
	}
	for len(e.netTrail) > int(m.nets) {
		s := e.netTrail[len(e.netTrail)-1]
		e.netTrail = e.netTrail[:len(e.netTrail)-1]
		e.vals[s.net] = s.val
	}
}

// evalGate recomputes a gate's output value and bound contribution from the
// current net values.
func (e *Inc3) evalGate(gi int32) (Value, float64) {
	g := &e.cc.Gates[gi]
	var state, xmask uint
	for k, net := range g.In {
		v := e.vals[net]
		e.inBuf[k] = v
		switch v {
		case X:
			xmask |= 1 << uint(k)
		case True:
			state |= 1 << uint(k)
		}
	}
	out := Eval3Op(g.Op, e.inBuf[:len(g.In)])
	switch {
	case xmask == 0:
		return out, e.known[gi][state]
	case e.coarse || xmask == (uint(1)<<uint(len(g.In)))-1:
		// All inputs X (or coarse mode, where any X falls back the same
		// way): unknown[g] is the precomputed row minimum, the value
		// PatternMin would return over the full mask.
		return out, e.unknown[gi]
	}
	return out, PatternMin(e.known[gi], state, xmask)
}

// propagate drains the pending-gate heap in topological (index) order,
// re-evaluating each gate once and scheduling its fanout only when the
// output value actually changed.
func (e *Inc3) propagate() {
	for len(e.heap) > 0 {
		gi := e.pop()
		e.inHeap[gi] = false
		v, c := e.evalGate(gi)
		if c != e.contrib[gi] {
			e.contribTrail = append(e.contribTrail, contribSave{gi, e.contrib[gi]})
			e.contrib[gi] = c
		}
		out := e.cc.Gates[gi].Out
		if v != e.vals[out] {
			e.netTrail = append(e.netTrail, netSave{int32(out), e.vals[out]})
			e.vals[out] = v
			for _, r := range e.cc.Fanout[out] {
				e.push(int32(r))
			}
		}
	}
}

func (e *Inc3) push(gi int32) {
	if e.inHeap[gi] {
		return
	}
	e.inHeap[gi] = true
	e.heap = append(e.heap, gi)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.heap[parent] <= e.heap[i] {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

func (e *Inc3) pop() int32 {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && e.heap[l] < e.heap[min] {
			min = l
		}
		if r < last && e.heap[r] < e.heap[min] {
			min = r
		}
		if min == i {
			break
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
	return top
}
