// Package library constructs the multi-version standby-leakage cell library
// of the paper's section 4: for every cell archetype and every input state
// it generates up to four Vt/Tox trade-off versions (minimum delay, minimum
// leakage, fast-fall and fast-rise), shares versions between states, folds
// input pin reordering into the per-state choices, and supports the reduced
// 2-option library, the uniform-stack restriction, and a Vt-only library
// that models the prior state+Vt approach (paper reference [12]).
package library

import (
	"fmt"
	"sort"

	"svto/internal/cell"
	"svto/internal/tech"
)

// OptionKind labels the trade-off point a choice represents.
type OptionKind uint8

const (
	// KindMinDelay is the all-fast version (figure 3(a)).
	KindMinDelay OptionKind = iota
	// KindMinLeak is the minimum-leakage version for the state (3(b)/(e)/(f)).
	KindMinLeak
	// KindFastFall keeps at least one falling arc at nominal delay (3(c)).
	KindFastFall
	// KindFastRise keeps at least one rising arc at nominal delay (3(d)).
	KindFastRise
)

// String returns a short label for the kind.
func (k OptionKind) String() string {
	switch k {
	case KindMinDelay:
		return "min-delay"
	case KindMinLeak:
		return "min-leak"
	case KindFastFall:
		return "fast-fall"
	case KindFastRise:
		return "fast-rise"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Options selects the library construction policy.
type Options struct {
	// TradeoffPoints is 4 (full library) or 2 (reduced library: minimum
	// delay and minimum leakage only), paper Table 2.
	TradeoffPoints int
	// UniformStack forces all devices sharing a transistor stack to use a
	// single corner (manufacturing restriction, paper section 4).
	UniformStack bool
	// VtOnly removes the Tox knob entirely, modeling the dual-Vt-only
	// library of the prior state+Vt approach [12].
	VtOnly bool
	// LeakTolAbs and LeakTolRel define the tolerance band (nA, fraction)
	// within which near-minimal assignments are considered equivalent so
	// that versions with fewer slow devices or already in the library are
	// preferred.  This is what makes "only one high-Vt per stack" and the
	// paper's version sharing emerge.
	LeakTolAbs, LeakTolRel float64
}

// DefaultOptions returns the 4-option individual-stack policy.
func DefaultOptions() Options {
	return Options{TradeoffPoints: 4, LeakTolAbs: 1.5, LeakTolRel: 0.03}
}

// TwoOption returns the reduced 2-option policy.
func TwoOption() Options {
	o := DefaultOptions()
	o.TradeoffPoints = 2
	return o
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.TradeoffPoints != 2 && o.TradeoffPoints != 4 {
		return fmt.Errorf("library: TradeoffPoints must be 2 or 4, got %d", o.TradeoffPoints)
	}
	if o.LeakTolAbs < 0 || o.LeakTolRel < 0 {
		return fmt.Errorf("library: negative leakage tolerance")
	}
	return nil
}

// Version is one physical cell version: a concrete Vt/Tox assignment with
// its full characterization.
type Version struct {
	// Index is the version's position in Cell.Versions; index 0 is always
	// the all-fast version.
	Index int
	// Name is e.g. "NAND2_v2".
	Name string
	// Assign is the per-device corner assignment.
	Assign cell.Assignment
	// Leak[s] is the total standby leakage (nA) in template state s.
	Leak []float64
	// Isub[s] is the subthreshold-only leakage (nA) in template state s,
	// used by the Isub-only objective of the [12] baseline.
	Isub []float64
	// Timing holds the per-template-pin NLDM arcs.
	Timing []cell.PinTiming
	// PinCap[i] is the input capacitance (fF) of template pin i.
	PinCap []float64
	// RiseFactor[i] and FallFactor[i] are the normalized delay
	// degradations of template pin i's arcs relative to version 0.
	RiseFactor, FallFactor []float64
	// MaxFactor is the worst normalized delay over all arcs.
	MaxFactor float64
}

// Choice is one usable option for a gate in a given instance state: a
// version plus an optional pin reordering.
type Choice struct {
	Version *Version
	// Perm maps instance pin i to template pin Perm[i]; nil means the
	// identity connection.
	Perm []int
	// Kind is the trade-off point this choice realizes.
	Kind OptionKind
	// TemplateState is the template-frame input state the version sees
	// (the instance state routed through Perm).
	TemplateState uint
	// Leak and Isub are the leakage (nA) of the gate under this choice at
	// the instance state this choice was built for.
	Leak, Isub float64
	// Arcs caches Version.Timing in *instance*-pin order (Perm already
	// applied): Arcs[i] == &Version.Timing[TemplatePin(i)].  The STA inner
	// loop indexes it directly instead of resolving the permutation per
	// fan-in per evaluation.
	Arcs []*cell.PinTiming
}

// TemplatePin maps an instance pin to the template pin it connects to.
func (c *Choice) TemplatePin(instPin int) int {
	if c.Perm == nil {
		return instPin
	}
	return c.Perm[instPin]
}

// Timing returns the NLDM arcs seen by the given instance pin.
func (c *Choice) Timing(instPin int) cell.PinTiming {
	return c.Version.Timing[c.TemplatePin(instPin)]
}

// PinCap returns the input capacitance (fF) of the given instance pin.
func (c *Choice) PinCap(instPin int) float64 {
	return c.Version.PinCap[c.TemplatePin(instPin)]
}

// RiseFactor and FallFactor return the normalized delay degradation of the
// instance pin's arcs.
func (c *Choice) RiseFactor(instPin int) float64 {
	return c.Version.RiseFactor[c.TemplatePin(instPin)]
}

// FallFactor returns the normalized fall-delay degradation of the pin.
func (c *Choice) FallFactor(instPin int) float64 {
	return c.Version.FallFactor[c.TemplatePin(instPin)]
}

// Cell is a library cell: its template, its generated versions, and the
// per-state choice lists the optimizer consumes.
type Cell struct {
	Template *cell.Template
	// Versions are the distinct physical versions; Versions[0] is the
	// all-fast cell.  len(Versions) is the paper's Table 2 metric.
	Versions []*Version
	// Slow is the all-high-Vt all-thick-Tox version used to define the
	// 100% delay-penalty point (unknown-state worst case).  It is not
	// offered in Choices.
	Slow *Version
	// Choices[s] lists the usable options for instance state s, sorted by
	// ascending total leakage (the pre-sorted gate-tree edge order of the
	// paper's search).
	Choices [][]Choice
}

// Fast returns the all-fast version.
func (c *Cell) Fast() *Version { return c.Versions[0] }

// MinDelayChoice returns the min-delay choice for the given instance state,
// or a diagnostic error when the cell is malformed (state out of range, or
// no KindMinDelay entry in its choice list).  Problem construction calls
// this for every resolved cell and state, so a broken state/version library
// fails with an error instead of crashing the search.
func (c *Cell) MinDelayChoice(state uint) (*Choice, error) {
	if int(state) >= len(c.Choices) {
		return nil, fmt.Errorf("library: cell %s: state %d out of range (%d states)",
			c.Template.Name, state, len(c.Choices))
	}
	for i := range c.Choices[state] {
		if c.Choices[state][i].Kind == KindMinDelay {
			return &c.Choices[state][i], nil
		}
	}
	return nil, fmt.Errorf("library: cell %s: no min-delay choice for state %d",
		c.Template.Name, state)
}

// FastChoice returns the min-delay choice for the given instance state.  It
// assumes a well-formed cell: Timer construction validates every resolved
// cell through MinDelayChoice, so library-backed search paths can never hit
// the panic below.  Callers that handle untrusted cells should use
// MinDelayChoice directly.
func (c *Cell) FastChoice(state uint) *Choice {
	ch, err := c.MinDelayChoice(state)
	if err != nil {
		// invariant: unreachable for cells validated at Timer/Problem
		// construction; only hand-assembled malformed cells land here.
		panic(err)
	}
	return ch
}

// MinLeakChoice returns the lowest-leakage choice for the given state.
func (c *Cell) MinLeakChoice(state uint) *Choice { return &c.Choices[state][0] }

// Library is a complete constructed cell library.
type Library struct {
	Tech  *tech.Params
	Opt   Options
	Cells map[string]*Cell
	// Names lists the cell names in deterministic order.
	Names []string
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell { return l.Cells[name] }

// TotalVersions returns the total number of physical cell versions in the
// library (the library-size cost the paper trades off in Table 2).
func (l *Library) TotalVersions() int {
	n := 0
	for _, c := range l.Cells {
		n += len(c.Versions)
	}
	return n
}

// sortedNames returns map keys in sorted order.
func sortedNames(m map[string]*Cell) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
