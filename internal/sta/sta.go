// Package sta implements slew/load-propagating static timing analysis over
// mapped circuits with library-version choices per gate, in the style the
// paper's optimizer needs: every cell version carries NLDM delay/slew
// tables, all library cells are inverting (rise arcs launch from falling
// inputs and vice versa), loads are the sum of fan-out pin capacitances
// plus wire and primary-output loads.
//
// Two evaluation modes are provided: a full topological analysis, and an
// incremental State that re-propagates only the affected cone when one
// gate's version choice changes — the operation the optimizer's gate-tree
// descent performs tens of thousands of times.  The incremental path is
// allocation-free after construction: net loads are cached per net (the
// choice-independent wire/PO part precomputed once on the Timer, the
// pin-capacitance part refreshed only for the nets a SetChoice actually
// touches), gate fan-ins are flattened into contiguous index tables, and
// the propagation heap is pre-sized to the gate count.
//
// There is one timing path.  New requires every reachable NLDM table to
// interpolate over one slew×load grid, so each State caches the grid
// coordinates of every stored slew and load, and every choice (the slow
// versions of SlowChoices included) carries its arcs in instance-pin order
// in library.Choice.Arcs.
package sta

import (
	"fmt"
	"math"
	"math/bits"

	"svto/internal/cell"
	"svto/internal/library"
	"svto/internal/netlist"
)

// Config sets the boundary conditions of the analysis.
type Config struct {
	// InputSlew is the transition time (ps) presented at primary inputs.
	InputSlew float64
	// OutputLoad is the capacitance (fF) on each primary output.
	OutputLoad float64
	// WireCapPerFanout is the interconnect capacitance (fF) added to a
	// net per fan-out connection.
	WireCapPerFanout float64
}

// DefaultConfig returns the boundary conditions used by the evaluation.
func DefaultConfig() Config {
	return Config{InputSlew: 20, OutputLoad: 4, WireCapPerFanout: 1}
}

// Timer binds a compiled circuit to library cells per gate.
type Timer struct {
	CC    *netlist.Compiled
	Lib   *library.Library
	Cells []*library.Cell // indexed by gate position
	Cfg   Config

	// staticLoad[net] is the choice-independent load component of a net:
	// wire capacitance per fan-out connection plus the primary-output load.
	// Computed once; the dynamic pin-capacitance part lives on each State.
	staticLoad []float64
	// Flattened fan-in tables: gate gi reads nets
	// faninNet[faninOff[gi]:faninOff[gi+1]] (instance pin k is entry
	// faninOff[gi]+k) and drives outNet[gi].  evalGate walks these flat
	// slices instead of chasing per-gate slice headers.
	faninOff []int32
	faninNet []int32
	outNet   []int32
	// axisX (input slew) and axisY (output load) are the one grid every
	// reachable NLDM table interpolates over; New refuses any other.
	// States cache the grid-segment index and interpolation fraction per
	// net alongside each stored slew and load, so evalGate skips the
	// per-table axis search entirely: four Table2D.At probes per fan-in arc
	// instead of four full Lookups.  The fractions are computed by
	// cell.Coord from the same stored values Lookup would use, so results
	// are bit-for-bit Lookup's.
	axisX, axisY []float64
}

// New resolves every gate to its library cell.
func New(cc *netlist.Compiled, lib *library.Library, cfg Config) (*Timer, error) {
	t := &Timer{CC: cc, Lib: lib, Cells: make([]*library.Cell, len(cc.Gates)), Cfg: cfg}
	for i := range cc.Gates {
		g := &cc.Gates[i]
		name := (&netlist.Gate{Op: g.Op, Fanin: make([]string, len(g.In))}).CellName()
		if name == "" {
			return nil, fmt.Errorf("sta: gate %s is not library-backed (%s/%d inputs)",
				cc.NetName[g.Out], g.Op, len(g.In))
		}
		cell := lib.Cell(name)
		if cell == nil {
			return nil, fmt.Errorf("sta: library has no cell %s", name)
		}
		t.Cells[i] = cell
	}
	// Validate every resolved cell once: each instance state must offer a
	// min-delay choice, and every timing table must lie on the one grid.
	// This is what lets the hot paths use FastChoice and the cached grid
	// coordinates without a reachable panic — a malformed state/version
	// library fails here, at construction, with a diagnostic.
	validated := make(map[*library.Cell]bool)
	for i, c := range t.Cells {
		if validated[c] {
			continue
		}
		validated[c] = true
		for s := range c.Choices {
			if _, err := c.MinDelayChoice(uint(s)); err != nil {
				return nil, fmt.Errorf("sta: gate %s: %w",
					cc.NetName[cc.Gates[i].Out], err)
			}
		}
		if err := t.checkGrid(c); err != nil {
			return nil, err
		}
	}
	t.staticLoad = make([]float64, cc.NumNets())
	for net := range t.staticLoad {
		l := cfg.WireCapPerFanout * float64(len(cc.Fanout[net]))
		if cc.IsPO[net] {
			l += cfg.OutputLoad
		}
		t.staticLoad[net] = l
	}
	t.faninOff = make([]int32, len(cc.Gates)+1)
	t.outNet = make([]int32, len(cc.Gates))
	pins := 0
	for i := range cc.Gates {
		pins += len(cc.Gates[i].In)
	}
	t.faninNet = make([]int32, 0, pins)
	for i := range cc.Gates {
		t.faninOff[i] = int32(len(t.faninNet))
		for _, in := range cc.Gates[i].In {
			t.faninNet = append(t.faninNet, int32(in))
		}
		t.outNet[i] = int32(cc.Gates[i].Out)
	}
	t.faninOff[len(cc.Gates)] = int32(len(t.faninNet))
	return t, nil
}

// checkGrid rejects every timing table of cell c, its slow version
// included, that does not interpolate over the Timer's grid; the first
// table checked sets that grid.  Identity is by backing array (same
// first-element address and length): the cached coordinates are only valid
// for tables that read that very grid.
func (t *Timer) checkGrid(c *library.Cell) error {
	same := func(a, b []float64) bool { return len(a) == len(b) && &a[0] == &b[0] }
	for _, v := range append(c.Versions[:len(c.Versions):len(c.Versions)], c.Slow) {
		if v == nil {
			return fmt.Errorf("sta: cell %s lacks a version", c.Template.Name)
		}
		for pin := range v.Timing {
			pt := &v.Timing[pin]
			for _, tab := range [...]*cell.Table2D{pt.Rise.Delay, pt.Rise.Slew, pt.Fall.Delay, pt.Fall.Slew} {
				if tab == nil || len(tab.X) < 2 || len(tab.Y) < 2 {
					return fmt.Errorf("sta: version %s pin %d: missing or degenerate timing table", v.Name, pin)
				}
				if t.axisX == nil {
					t.axisX, t.axisY = tab.X, tab.Y
				}
				if !same(tab.X, t.axisX) || !same(tab.Y, t.axisY) {
					return fmt.Errorf("sta: version %s pin %d: timing table is off the library's slew×load grid", v.Name, pin)
				}
			}
		}
	}
	return nil
}

// FastChoices returns the all-fast (minimum delay) choice assignment.
func (t *Timer) FastChoices() []*library.Choice {
	out := make([]*library.Choice, len(t.CC.Gates))
	for i, c := range t.Cells {
		// invariant: New validated every resolved cell, so FastChoice
		// cannot panic here.
		out[i] = c.FastChoice(0)
	}
	return out
}

// SlowChoices returns the all-high-Vt/thick-Tox assignment defining the
// 100% delay-penalty point.  Each choice carries the slow version's arcs in
// the identity pin order.
func (t *Timer) SlowChoices() []*library.Choice {
	out := make([]*library.Choice, len(t.CC.Gates))
	for i, c := range t.Cells {
		ch := &library.Choice{Version: c.Slow, Arcs: make([]*cell.PinTiming, len(c.Slow.Timing))}
		for pin := range ch.Arcs {
			ch.Arcs[pin] = &c.Slow.Timing[pin]
		}
		out[i] = ch
	}
	return out
}

// State is an incrementally-maintained timing solution.
type State struct {
	t       *Timer
	choices []*library.Choice
	// Per-net arrival times and slews (ps), split by transition.
	arrR, arrF, slewR, slewF []float64
	// netLoad[net] is the cached total load: Timer.staticLoad plus the
	// fan-out pin capacitances under the current choices.  Refreshed by
	// SetChoice for exactly the nets whose readers changed, always in the
	// same canonical summation order, so its values are bit-for-bit the
	// ones a from-scratch rescan would produce.
	netLoad []float64
	dirty   dirtySet
	// Per-net interpolation coordinates on the Timer's grid: the
	// axis-segment index and fraction cell.Coord yields for the *stored*
	// slew/load words above.  They are refreshed at exactly the sites that
	// store those words (evalGate for slews, recompute sites for loads),
	// so every table probe in evalGate reuses them instead of re-running
	// the segment search per table.  Stale stored slews (left by the eps
	// cutoff) keep their matching stale coordinates, preserving the
	// incremental path bit for bit.
	slewRI, slewFI   []int32
	slewRFx, slewFFx []float64
	loadJ            []int32
	loadFy           []float64
}

// newState allocates a State's storage, every array zeroed.
func (t *Timer) newState() *State {
	n := t.CC.NumNets()
	return &State{
		t:       t,
		choices: make([]*library.Choice, len(t.CC.Gates)),
		arrR:    make([]float64, n),
		arrF:    make([]float64, n),
		slewR:   make([]float64, n),
		slewF:   make([]float64, n),
		netLoad: make([]float64, n),
		dirty:   newDirtySet(len(t.CC.Gates)),
		slewRI:  make([]int32, n),
		slewFI:  make([]int32, n),
		slewRFx: make([]float64, n),
		slewFFx: make([]float64, n),
		loadJ:   make([]int32, n),
		loadFy:  make([]float64, n),
	}
}

// NewState builds a fully-analyzed timing state for the given choices.
// The choices slice is copied.
func (t *Timer) NewState(choices []*library.Choice) (*State, error) {
	if len(choices) != len(t.CC.Gates) {
		return nil, fmt.Errorf("sta: %d choices for %d gates", len(choices), len(t.CC.Gates))
	}
	s := t.newState()
	s.Reanalyze(choices)
	return s, nil
}

// refreshSlewCoords re-derives the cached interpolation coordinates of a
// net's stored slews.  Must be called at every site that stores
// slewR/slewF.
func (s *State) refreshSlewCoords(net int) {
	i, fx := cell.Coord(s.t.axisX, s.slewR[net])
	s.slewRI[net], s.slewRFx[net] = int32(i), fx
	i, fx = cell.Coord(s.t.axisX, s.slewF[net])
	s.slewFI[net], s.slewFFx[net] = int32(i), fx
}

// refreshLoadCoord re-derives the cached interpolation coordinate of a net's
// stored load.  Must be called at every site that stores netLoad.
func (s *State) refreshLoadCoord(net int) {
	j, fy := cell.Coord(s.t.axisY, s.netLoad[net])
	s.loadJ[net], s.loadFy[net] = int32(j), fy
}

// Choice returns the current choice of a gate.
func (s *State) Choice(gate int) *library.Choice { return s.choices[gate] }

// Clone returns an independent copy of a quiescent timing state.  The copy
// shares the read-only Timer but owns its arrival/slew/load/choice storage,
// so a clone can be re-timed concurrently with the original.  Cloning is a
// plain O(nets) copy — far cheaper than NewState's full re-analysis — which
// is what lets every parallel search worker start from a precomputed
// baseline.
func (s *State) Clone() *State {
	c := s.t.newState()
	c.CopyFrom(s)
	return c
}

// CopyFrom overwrites s with o's choices, timing and net loads without any
// re-analysis.  Both states must belong to the same Timer and be quiescent
// (no propagation in flight).  It is the reset operation of the search
// workers: one copy per leaf instead of one full analysis per leaf.
func (s *State) CopyFrom(o *State) {
	if s.t != o.t {
		panic("sta: CopyFrom across different timers")
	}
	copy(s.choices, o.choices)
	copy(s.arrR, o.arrR)
	copy(s.arrF, o.arrF)
	copy(s.slewR, o.slewR)
	copy(s.slewF, o.slewF)
	copy(s.netLoad, o.netLoad)
	copy(s.slewRI, o.slewRI)
	copy(s.slewFI, o.slewFI)
	copy(s.slewRFx, o.slewRFx)
	copy(s.slewFFx, o.slewFFx)
	copy(s.loadJ, o.loadJ)
	copy(s.loadFy, o.loadFy)
}

// Reanalyze re-runs the full from-scratch analysis for the given choices in
// place — arrival and slew arrays reset, every net load recomputed in
// canonical order, every gate evaluated once in topological order — without
// allocating.  NewState is Reanalyze on freshly zeroed storage.  It is the
// allocation-free replacement for the per-leaf Timer.Analyze call of the
// search workers.  The choices slice is copied and must match the gate
// count.
func (s *State) Reanalyze(choices []*library.Choice) {
	if len(choices) != len(s.t.CC.Gates) {
		panic(fmt.Sprintf("sta: Reanalyze with %d choices for %d gates", len(choices), len(s.t.CC.Gates)))
	}
	copy(s.choices, choices)
	for i := range s.arrR {
		s.arrR[i], s.arrF[i] = 0, 0
		s.slewR[i], s.slewF[i] = 0, 0
	}
	for _, pi := range s.t.CC.PI {
		s.slewR[pi] = s.t.Cfg.InputSlew
		s.slewF[pi] = s.t.Cfg.InputSlew
		s.refreshSlewCoords(pi)
	}
	for net := range s.netLoad {
		s.netLoad[net] = s.recomputeLoad(net)
		s.refreshLoadCoord(net)
	}
	for i := range s.t.CC.Gates {
		s.evalGate(i)
	}
}

// recomputeLoad sums a net's load from scratch: the precomputed wire+PO
// component, then the fan-out pin capacitances in fan-out order — the same
// canonical order the original per-eval rescan used, so cached values stay
// bit-for-bit identical to it.
func (s *State) recomputeLoad(net int) float64 {
	t := s.t
	l := t.staticLoad[net]
	for _, gi := range t.CC.Fanout[net] {
		ch := s.choices[gi]
		off, end := t.faninOff[gi], t.faninOff[gi+1]
		for k := off; k < end; k++ {
			if int(t.faninNet[k]) == net {
				l += ch.PinCap(int(k - off))
			}
		}
	}
	return l
}

// Load returns the current cached capacitance on a net.
func (s *State) Load(net int) float64 { return s.netLoad[net] }

// evalGate recomputes a gate's output arrival/slew; reports change.  It
// probes each table at the per-net cached coordinates — the segment
// searches and divisions Lookup would repeat per table were already paid
// when the slews and load were stored.
func (s *State) evalGate(gi int) bool {
	t := s.t
	byPin := s.choices[gi].Arcs
	out := int(t.outNet[gi])
	off, end := t.faninOff[gi], t.faninOff[gi+1]
	var aR, aF, sR, sF float64
	j, fy := int(s.loadJ[out]), s.loadFy[out]
	for k := off; k < end; k++ {
		in := int(t.faninNet[k])
		arcs := byPin[k-off]
		iF, fxF := int(s.slewFI[in]), s.slewFFx[in]
		iR, fxR := int(s.slewRI[in]), s.slewRFx[in]
		// Inverting cell: output rise launches from input fall.
		r := s.arrF[in] + arcs.Rise.Delay.At(iF, j, fxF, fy)
		f := s.arrR[in] + arcs.Fall.Delay.At(iR, j, fxR, fy)
		if r > aR {
			aR = r
		}
		if f > aF {
			aF = f
		}
		if v := arcs.Rise.Slew.At(iF, j, fxF, fy); v > sR {
			sR = v
		}
		if v := arcs.Fall.Slew.At(iR, j, fxR, fy); v > sF {
			sF = v
		}
	}
	const eps = 1e-9
	changed := math.Abs(aR-s.arrR[out]) > eps || math.Abs(aF-s.arrF[out]) > eps ||
		math.Abs(sR-s.slewR[out]) > eps || math.Abs(sF-s.slewF[out]) > eps
	s.arrR[out], s.arrF[out] = aR, aF
	s.slewR[out], s.slewF[out] = sR, sF
	s.refreshSlewCoords(out)
	return changed
}

// markDirty queues a gate for re-evaluation.
func (s *State) markDirty(gi int) {
	if gi >= 0 {
		s.dirty.add(gi)
	}
}

// SetChoice changes one gate's version choice and re-propagates timing
// through the affected cone.  Changing a choice alters the gate's own arcs
// and, through its pin capacitances, the loads (and hence delays) of its
// fan-in drivers.  Only the loads of the gate's own input nets can change,
// so exactly those are refreshed.
func (s *State) SetChoice(gate int, ch *library.Choice) {
	if s.choices[gate] == ch {
		return
	}
	s.choices[gate] = ch
	t := s.t
	gateOfNet := t.CC.GateOfNet
	off, end := t.faninOff[gate], t.faninOff[gate+1]
	for k := off; k < end; k++ {
		in := int(t.faninNet[k])
		s.netLoad[in] = s.recomputeLoad(in)
		s.refreshLoadCoord(in)
		s.markDirty(gateOfNet[in])
	}
	s.markDirty(gate)
	s.propagate()
}

// propagate drains the dirty set in topological order.  Re-evaluating gate
// gi can only mark gates downstream of it (readers of its output net, which
// topological compilation numbers strictly above gi), so the forward
// bit-scan of dirtySet visits exactly the gates a min-heap would pop, in the
// same ascending-index order.
func (s *State) propagate() {
	fanout := s.t.CC.Fanout
	outNet := s.t.outNet
	for !s.dirty.empty() {
		gi := s.dirty.pop()
		if s.evalGate(gi) {
			for _, reader := range fanout[outNet[gi]] {
				s.dirty.add(reader)
			}
		}
	}
}

// Delay returns the circuit delay: the worst primary-output arrival (ps).
func (s *State) Delay() float64 {
	d := 0.0
	for _, po := range s.t.CC.PO {
		if a := s.arrR[po]; a > d {
			d = a
		}
		if a := s.arrF[po]; a > d {
			d = a
		}
	}
	return d
}

// Arrival returns the worst arrival time (ps) of a net.
func (s *State) Arrival(net int) float64 {
	return math.Max(s.arrR[net], s.arrF[net])
}

// Analyze runs a one-shot full analysis for the given choices and returns
// the circuit delay (ps).  It is the non-incremental reference.
func (t *Timer) Analyze(choices []*library.Choice) (float64, error) {
	s, err := t.NewState(choices)
	if err != nil {
		return 0, err
	}
	return s.Delay(), nil
}

// DelayBounds returns (Dmin, Dmax): the all-fast and all-slow circuit
// delays that anchor the paper's delay-penalty definition.
func (t *Timer) DelayBounds() (dmin, dmax float64, err error) {
	dmin, err = t.Analyze(t.FastChoices())
	if err != nil {
		return 0, 0, err
	}
	dmax, err = t.Analyze(t.SlowChoices())
	if err != nil {
		return 0, 0, err
	}
	return dmin, dmax, nil
}

// Constraint converts a delay-penalty fraction p (e.g. 0.05 for the paper's
// "5% delay penalty") into an absolute delay bound: Dmin + p*(Dmax-Dmin).
func Constraint(dmin, dmax, penalty float64) float64 {
	return dmin + penalty*(dmax-dmin)
}

// dirtySet tracks the gates pending re-evaluation as a fixed-size bitset
// with live index bounds.  It replaces a binary min-heap: propagation only
// ever inserts indexes above the one just removed (fan-out readers are
// topologically later), so removing the minimum is a forward bit-scan that
// never revisits a word — O(words + members) per drain, allocation-free,
// with automatic deduplication.
type dirtySet struct {
	words    []uint64
	min, max int // inclusive index bounds of set bits; min > max means empty
}

func newDirtySet(n int) dirtySet {
	return dirtySet{words: make([]uint64, (n+63)/64), min: n, max: -1}
}

func (d *dirtySet) empty() bool { return d.min > d.max }

func (d *dirtySet) add(gi int) {
	d.words[gi>>6] |= 1 << uint(gi&63)
	if gi < d.min {
		d.min = gi
	}
	if gi > d.max {
		d.max = gi
	}
}

// pop removes and returns the smallest member.  Between two pops callers
// may only add members larger than the first pop's result; the set must not
// be empty.
func (d *dirtySet) pop() int {
	wi := d.min >> 6
	for d.words[wi] == 0 {
		wi++
	}
	b := bits.TrailingZeros64(d.words[wi])
	gi := wi<<6 + b
	d.words[wi] &^= 1 << uint(b)
	if gi == d.max {
		d.min, d.max = len(d.words)<<6, -1
	} else {
		d.min = gi + 1
	}
	return gi
}
