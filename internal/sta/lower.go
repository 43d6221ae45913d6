package sta

import (
	"fmt"
	"sort"

	"svto/internal/cell"
	"svto/internal/library"
)

// Lower is a certified lower-bound timing model: a fixpoint of the same
// arrival/slew recurrence State propagates, but with every quantity replaced
// by a value provably ≤ its counterpart under ANY complete choice
// assignment.
//
// Choices couple gates through loads: a slow (thick-oxide) version has
// *smaller* pin capacitances than the fast one, so switching a gate to a
// slow choice can speed up its fan-in drivers — circuit delay is NOT
// monotone in per-gate "slowness", and the delay of an all-fast assignment
// is not a lower bound over assignments that share a choice with it.  The
// naive sound model (every connection at its pointwise-minimum arc, every
// net at its minimum possible load) sidesteps the coupling but combines
// "fast arcs" with "slow-version capacitances" — a pairing no real choice
// offers — and the fiction compounds per logic level into a uselessly loose
// bound.
//
// The recurrence here restores the per-gate coherence of that trade-off.
// Gate g's output bundle is bounded below by
//
//	min over choices c of g:  max over pins k of
//	    max( V(n_k) + arc_c(k) at V(n_k)'s slew,
//	         E_d(L(n_k) + Δcap_c(k)) + arc_c(k) )
//
// where V(n) is the stored lower-bound value of net n, E_d(L) re-evaluates
// n's driver d from its own inputs at output load L, and Δcap_c(k) ≥ 0 is
// how far c's pin-k capacitance sits above the connection's minimum.  The
// min over c is outside the max over pins, so one choice must serve every
// pin coherently: a choice may still claim the minimum load on its input
// nets, but then it pays its own (slower) arcs on all of them; a choice
// claiming the fast arcs pays its own (larger) capacitances through the
// driver re-evaluations.  Both branches of the inner max are certified
// lower bounds for every completion assigning c to g, so their max is, and
// the outer min covers whichever choice the completion actually takes.  The
// driver re-evaluation E_d recurses one more coherent level (so a
// candidate's cap elevation lands on top of the driver's own coherent
// choice min) before terminating in an incoherent per-arc-minimum pass.
//
// Soundness rests on the NLDM grids being monotone nondecreasing along both
// axes (delay and output slew grow with input slew and output load), which
// NewLower verifies sample-by-sample and refuses to build without: with
// monotone tables, component-wise ≤ inputs produce ≤ outputs, so by
// induction over topological order every net's lower-bound arrival and slew
// stay ≤ the same net's values under any complete assignment.  Bilinear
// interpolation between verified samples preserves monotonicity exactly;
// linear extrapolation beyond the grid edge can deviate only by the
// cross-term imbalance of the edge cells (rounding-level for the additive
// delay model), which callers absorb with an explicit slack guard rather
// than by assumption.
type Lower struct {
	t *Timer
	// load[net] is the choice-independent wire/output load plus the
	// minimum pin capacitance of every fan-out connection; Probe raises
	// the probed gate's own contributions to its exact pin capacitances
	// for the duration of the probe.
	load []float64
	// minCap[p] is the minimum pin capacitance of flattened fan-in
	// connection p (Timer.faninOff layout) over all assignable choices.
	minCap []float64
	// arcs[p] lists the distinct arc tables connection p can see over all
	// assignable choices, in deterministic first-seen order — the
	// incoherent per-component minimum set the innermost driver
	// re-evaluation uses.
	arcs [][]*cell.PinTiming
	// elevs[p] lists the distinct cap elevations (pin capacitance above
	// the connection minimum) connection p's candidates present,
	// ascending; ebuf[p] is the matching driver re-evaluation scratch,
	// filled per evaluation of p's gate.
	elevs [][]float64
	ebuf  [][]bundle
	// cands[g] lists gate g's distinct assignable (version, permutation)
	// candidates: per pin the arc table, its cap elevation, and the index
	// of that elevation in elevs.
	cands [][]gateCand
	// Stored lower-bound values per net, and the worst PO arrival of the
	// unpinned fixpoint.
	arrR, arrF, slewR, slewF []float64
	base                     float64

	// Probe state: the pinned gate (-1 outside probes), its arcs by
	// instance pin, the undo trails and the pending-evaluation set.
	pinGate int
	pinArcs [8]*cell.PinTiming
	dirty   dirtySet
	trail   []lowerSave
	loads   []loadSave
}

// bundle is one (arrival rise/fall, slew rise/fall) tuple.
type bundle struct {
	aR, aF, sR, sF float64
}

// gateCand is one assignable (version, permutation) of a gate, flattened to
// per-instance-pin arc tables and cap elevations.
type gateCand struct {
	arcs []*cell.PinTiming
	eIdx []int32 // index into elevs[p] per pin
}

type lowerSave struct {
	net                      int32
	arrR, arrF, slewR, slewF float64
}

type loadSave struct {
	net  int32
	load float64
}

// NewLower builds the lower-bound model for a timer's circuit and library.
// It fails if any reachable NLDM grid is not monotone nondecreasing along
// both axes — the property the model's induction needs.
func NewLower(t *Timer) (*Lower, error) {
	npins := int(t.faninOff[len(t.CC.Gates)])
	nnets := t.CC.NumNets()
	l := &Lower{
		t:       t,
		load:    make([]float64, nnets),
		minCap:  make([]float64, npins),
		arcs:    make([][]*cell.PinTiming, npins),
		elevs:   make([][]float64, npins),
		ebuf:    make([][]bundle, npins),
		cands:   make([][]gateCand, len(t.CC.Gates)),
		arrR:    make([]float64, nnets),
		arrF:    make([]float64, nnets),
		slewR:   make([]float64, nnets),
		slewF:   make([]float64, nnets),
		pinGate: -1,
		dirty:   newDirtySet(len(t.CC.Gates)),
	}
	checked := make(map[*cell.Table2D]bool)
	for gi := range t.CC.Gates {
		c := t.Cells[gi]
		off, end := t.faninOff[gi], t.faninOff[gi+1]
		np := int(end - off)
		type candKey struct {
			version int
			perm    [8]int8
		}
		seen := make(map[candKey]bool)
		caps := make([][]float64, np) // per pin: candidate caps, candidate-ordered
		for s := range c.Choices {
			for ci := range c.Choices[s] {
				ch := &c.Choices[s][ci]
				key := candKey{version: ch.Version.Index}
				for i, p := range ch.Perm {
					key.perm[i] = int8(p)
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				cand := gateCand{
					arcs: make([]*cell.PinTiming, np),
					eIdx: make([]int32, np),
				}
				for pin := 0; pin < np; pin++ {
					pt := ch.Arcs[pin]
					if err := checkMonotone(checked, pt); err != nil {
						return nil, fmt.Errorf("sta: cell %s version %s pin %d: %w",
							c.Template.Name, ch.Version.Name, ch.TemplatePin(pin), err)
					}
					cand.arcs[pin] = pt
					k := off + int32(pin)
					found := false
					for _, q := range l.arcs[k] {
						if q == pt {
							found = true
							break
						}
					}
					if !found {
						l.arcs[k] = append(l.arcs[k], pt)
					}
					cap := ch.PinCap(pin)
					caps[pin] = append(caps[pin], cap)
					if l.minCap[k] == 0 || cap < l.minCap[k] {
						l.minCap[k] = cap
					}
				}
				l.cands[gi] = append(l.cands[gi], cand)
			}
		}
		if len(l.cands[gi]) == 0 {
			return nil, fmt.Errorf("sta: gate %s has no assignable choices",
				t.CC.NetName[t.CC.Gates[gi].Out])
		}
		// Convert candidate caps to distinct sorted elevations per pin and
		// point each candidate at its slot.
		for pin := 0; pin < np; pin++ {
			k := off + int32(pin)
			es := make([]float64, 0, len(caps[pin]))
			for _, cap := range caps[pin] {
				e := cap - l.minCap[k]
				dup := false
				for _, x := range es {
					if x == e {
						dup = true
						break
					}
				}
				if !dup {
					es = append(es, e)
				}
			}
			sort.Float64s(es)
			l.elevs[k] = es
			l.ebuf[k] = make([]bundle, len(es))
			for ci := range l.cands[gi] {
				e := caps[pin][ci] - l.minCap[k]
				for ei, x := range es {
					if x == e {
						l.cands[gi][ci].eIdx[pin] = int32(ei)
						break
					}
				}
			}
		}
	}
	copy(l.load, t.staticLoad)
	for gi := range t.CC.Gates {
		off, end := t.faninOff[gi], t.faninOff[gi+1]
		for k := off; k < end; k++ {
			l.load[t.faninNet[k]] += l.minCap[k]
		}
	}
	for _, pi := range t.CC.PI {
		l.slewR[pi] = t.Cfg.InputSlew
		l.slewF[pi] = t.Cfg.InputSlew
	}
	for gi := range t.CC.Gates {
		b := l.eval(gi)
		out := t.outNet[gi]
		l.arrR[out], l.arrF[out] = b.aR, b.aF
		l.slewR[out], l.slewF[out] = b.sR, b.sF
	}
	l.base = l.poDelay()
	return l, nil
}

// checkMonotone verifies all four grids of a timing-arc pair are
// nondecreasing along both axes, memoizing per table.
func checkMonotone(checked map[*cell.Table2D]bool, pt *cell.PinTiming) error {
	for _, tab := range []*cell.Table2D{pt.Rise.Delay, pt.Rise.Slew, pt.Fall.Delay, pt.Fall.Slew} {
		if tab == nil {
			return fmt.Errorf("missing timing table")
		}
		if checked[tab] {
			continue
		}
		for i := range tab.V {
			for j := range tab.V[i] {
				if j > 0 && tab.V[i][j] < tab.V[i][j-1] {
					return fmt.Errorf("table not monotone along load axis at (%d,%d)", i, j)
				}
				if i > 0 && tab.V[i][j] < tab.V[i-1][j] {
					return fmt.Errorf("table not monotone along slew axis at (%d,%d)", i, j)
				}
			}
		}
		checked[tab] = true
	}
	return nil
}

// BaseDelay returns the lower-bound circuit delay with no gate pinned: a
// certified lower bound on the delay of every complete assignment.
func (l *Lower) BaseDelay() float64 { return l.base }

// poDelay scans the primary outputs for the worst current arrival.
func (l *Lower) poDelay() float64 {
	d := 0.0
	for _, po := range l.t.CC.PO {
		if a := l.arrR[po]; a > d {
			d = a
		}
		if a := l.arrF[po]; a > d {
			d = a
		}
	}
	return d
}

// reEval recomputes driver gate d's output bundle from its inputs' stored
// values with its per-connection minimum arcs, at output load L — the
// incoherent innermost level of the coherent driver re-evaluation
// (inverting cells: output rise launches from input fall).
func (l *Lower) reEval(d int, L float64) (b bundle) {
	t := l.t
	off, end := t.faninOff[d], t.faninOff[d+1]
	for j := off; j < end; j++ {
		in := int(t.faninNet[j])
		first := true
		var dR, dF, wR, wF float64
		for _, pt := range l.arcs[j] {
			vR := pt.Rise.Delay.Lookup(l.slewF[in], L)
			vF := pt.Fall.Delay.Lookup(l.slewR[in], L)
			uR := pt.Rise.Slew.Lookup(l.slewF[in], L)
			uF := pt.Fall.Slew.Lookup(l.slewR[in], L)
			if first || vR < dR {
				dR = vR
			}
			if first || vF < dF {
				dF = vF
			}
			if first || uR < wR {
				wR = uR
			}
			if first || uF < wF {
				wF = uF
			}
			first = false
		}
		if r := l.arrF[in] + dR; r > b.aR {
			b.aR = r
		}
		if f := l.arrR[in] + dF; f > b.aF {
			b.aF = f
		}
		if wR > b.sR {
			b.sR = wR
		}
		if wF > b.sF {
			b.sF = wF
		}
	}
	return b
}

// chain evaluates one candidate arc over a driver-side input bundle at the
// gate's output load.  Components are handled independently — each is a
// certified lower bound on its own.
func chain(pt *cell.PinTiming, in bundle, outLoad float64) (c bundle) {
	c.aR = in.aF + pt.Rise.Delay.Lookup(in.sF, outLoad)
	c.aF = in.aR + pt.Fall.Delay.Lookup(in.sR, outLoad)
	c.sR = pt.Rise.Slew.Lookup(in.sF, outLoad)
	c.sF = pt.Fall.Slew.Lookup(in.sR, outLoad)
	return c
}

// maxInto folds a pin contribution into a candidate's output bundle,
// component-wise.
func (b *bundle) maxInto(c bundle) {
	if c.aR > b.aR {
		b.aR = c.aR
	}
	if c.aF > b.aF {
		b.aF = c.aF
	}
	if c.sR > b.sR {
		b.sR = c.sR
	}
	if c.sF > b.sF {
		b.sF = c.sF
	}
}

// minInto folds a candidate's output bundle into the gate minimum,
// component-wise.
func (b *bundle) minInto(c bundle, first bool) {
	if first || c.aR < b.aR {
		b.aR = c.aR
	}
	if first || c.aF < b.aF {
		b.aF = c.aF
	}
	if first || c.sR < b.sR {
		b.sR = c.sR
	}
	if first || c.sF < b.sF {
		b.sF = c.sF
	}
}

// eval recomputes a gate's lower-bound output bundle from the current net
// values at the net's current load, with full coherence.
func (l *Lower) eval(gi int) bundle {
	return l.evalAt(gi, l.load[l.t.outNet[gi]], true)
}

// evalAt recomputes gate gi's output bundle at output load L: the minimum
// over the gate's (version, permutation) candidates of the per-pin maximum
// of each candidate's coherent contributions — one choice must serve every
// pin.  Per pin a candidate keeps the larger of the stored-value branch
// (its arcs over the net's fixpoint bundle at the minimum load) and the
// coherent branch (the driver re-evaluated at the load the candidate's own
// capacitance actually presents); both are certified bounds for
// completions taking the candidate.  When deep, driver re-evaluations
// recurse one more coherent level, so a candidate's elevation lands on top
// of the driver's own coherent choice minimum; the inner level falls back
// to the min-arc reEval, which terminates the recursion.  The pinned gate
// instead uses its pinned arcs verbatim (its capacitances are already
// folded into the load array by Probe).
func (l *Lower) evalAt(gi int, outLoad float64, deep bool) bundle {
	t := l.t
	off, end := t.faninOff[gi], t.faninOff[gi+1]
	if l.pinGate == gi {
		var out bundle
		for k := off; k < end; k++ {
			in := int(t.faninNet[k])
			v := bundle{l.arrR[in], l.arrF[in], l.slewR[in], l.slewF[in]}
			out.maxInto(chain(l.pinArcs[k-off], v, outLoad))
		}
		return out
	}
	// Fill the driver re-evaluation scratch: per pin, one bundle per
	// distinct cap elevation (nets without a driving gate keep their
	// stored bundle — a primary input's value is load-independent).
	for k := off; k < end; k++ {
		in := int(t.faninNet[k])
		d := t.CC.GateOfNet[in]
		v := bundle{l.arrR[in], l.arrF[in], l.slewR[in], l.slewF[in]}
		for ei, e := range l.elevs[k] {
			if d < 0 {
				l.ebuf[k][ei] = v
				continue
			}
			var eb bundle
			if deep {
				eb = l.evalAt(d, l.load[in]+e, false)
			} else {
				eb = l.reEval(d, l.load[in]+e)
			}
			// Each candidate keeps the larger of the two certified
			// branches; fold the stored-value branch in here so the
			// candidate loop below reads one bundle per (pin, elevation).
			// Arrivals and slews compare independently.
			if v.aR > eb.aR {
				eb.aR = v.aR
			}
			if v.aF > eb.aF {
				eb.aF = v.aF
			}
			if v.sR > eb.sR {
				eb.sR = v.sR
			}
			if v.sF > eb.sF {
				eb.sF = v.sF
			}
			l.ebuf[k][ei] = eb
		}
	}
	var out bundle
	for ci := range l.cands[gi] {
		cand := &l.cands[gi][ci]
		var cb bundle
		for k := off; k < end; k++ {
			pin := int(k - off)
			cb.maxInto(chain(cand.arcs[pin], l.ebuf[k][cand.eIdx[pin]], outLoad))
		}
		out.minInto(cb, ci == 0)
	}
	return out
}

// Probe returns a certified lower bound on the delay of every complete
// assignment in which gate `gate` uses choice ch: the gate is pinned to
// ch's exact arcs, its fan-in nets carry ch's exact pin capacitances, the
// affected region is re-propagated, and the model is restored before
// returning.  Allocation-free after the trails reach working size.
func (l *Lower) Probe(gate int, ch *library.Choice) float64 {
	t := l.t
	off, end := t.faninOff[gate], t.faninOff[gate+1]
	l.pinGate = gate
	for k := off; k < end; k++ {
		pin := int(k - off)
		l.pinArcs[pin] = ch.Arcs[pin]
		in := int(t.faninNet[k])
		if delta := ch.PinCap(pin) - l.minCap[k]; delta != 0 {
			l.loads = append(l.loads, loadSave{int32(in), l.load[in]})
			l.load[in] += delta
			// The driver re-times at the heavier load; every reader's
			// coherent elevations start from it, and readers one level
			// further down see it through their candidates' deep driver
			// re-evaluations.
			if d := t.CC.GateOfNet[in]; d >= 0 {
				l.dirty.add(d)
			}
			for _, r := range t.CC.Fanout[in] {
				l.dirty.add(r)
				for _, r2 := range t.CC.Fanout[int(t.outNet[r])] {
					l.dirty.add(r2)
				}
			}
		}
	}
	l.dirty.add(gate)
	for !l.dirty.empty() {
		gi := l.dirty.pop()
		b := l.eval(gi)
		out := int(t.outNet[gi])
		if b.aR != l.arrR[out] || b.aF != l.arrF[out] || b.sR != l.slewR[out] || b.sF != l.slewF[out] {
			l.trail = append(l.trail, lowerSave{int32(out), l.arrR[out], l.arrF[out], l.slewR[out], l.slewF[out]})
			l.arrR[out], l.arrF[out] = b.aR, b.aF
			l.slewR[out], l.slewF[out] = b.sR, b.sF
			// A net's value feeds its readers directly and, through the
			// (deep, then min-arc) driver re-evaluations inside the
			// coherent branches, readers up to three levels down — all of
			// them re-evaluate.
			for _, r := range t.CC.Fanout[out] {
				l.dirty.add(r)
				for _, r2 := range t.CC.Fanout[int(t.outNet[r])] {
					l.dirty.add(r2)
					for _, r3 := range t.CC.Fanout[int(t.outNet[r2])] {
						l.dirty.add(r3)
					}
				}
			}
		}
	}
	po := l.poDelay()
	for i := len(l.trail) - 1; i >= 0; i-- {
		s := l.trail[i]
		l.arrR[s.net], l.arrF[s.net] = s.arrR, s.arrF
		l.slewR[s.net], l.slewF[s.net] = s.slewR, s.slewF
	}
	l.trail = l.trail[:0]
	for i := len(l.loads) - 1; i >= 0; i-- {
		l.load[l.loads[i].net] = l.loads[i].load
	}
	l.loads = l.loads[:0]
	l.pinGate = -1
	return po
}
