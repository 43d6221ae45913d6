package sta

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/tech"
)

func testLib(t *testing.T) *library.Library {
	t.Helper()
	l, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func chainCircuit(t *testing.T, n int) *netlist.Compiled {
	t.Helper()
	c := &netlist.Circuit{Name: "chain", Inputs: []string{"a"}, Outputs: []string{}}
	prev := "a"
	for i := 0; i < n; i++ {
		name := netName(i)
		c.Gates = append(c.Gates, netlist.Gate{Name: name, Op: netlist.OpNot, Fanin: []string{prev}})
		prev = name
	}
	c.Outputs = []string{prev}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

func netName(i int) string { return "n" + string(rune('a'+i%26)) + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func newTimer(t *testing.T, cc *netlist.Compiled) *Timer {
	t.Helper()
	tm, err := New(cc, testLib(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestInverterChainDelayScalesLinearly(t *testing.T) {
	t10 := newTimer(t, chainCircuit(t, 10))
	t20 := newTimer(t, chainCircuit(t, 20))
	d10, err := t10.Analyze(t10.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	d20, err := t20.Analyze(t20.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	if d10 <= 0 {
		t.Fatalf("chain delay should be positive, got %g", d10)
	}
	if r := d20 / d10; r < 1.7 || r > 2.3 {
		t.Errorf("20-stage/10-stage delay ratio = %.2f, want ~2", r)
	}
}

// The paper: replacing every device with its high-Vt + thick-Tox version
// "nearly doubles" circuit delay.
func TestAllSlowNearlyDoublesDelay(t *testing.T) {
	p, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tm := newTimer(t, cc)
	dmin, dmax, err := tm.DelayBounds()
	if err != nil {
		t.Fatal(err)
	}
	if r := dmax / dmin; r < 1.6 || r > 2.4 {
		t.Errorf("Dmax/Dmin = %.2f, want ~2 (paper: 'nearly double')", r)
	}
}

func TestConstraint(t *testing.T) {
	if got := Constraint(100, 200, 0.05); got != 105 {
		t.Errorf("Constraint(100,200,5%%) = %g, want 105", got)
	}
	if got := Constraint(100, 200, 1); got != 200 {
		t.Errorf("Constraint(100,200,100%%) = %g, want 200", got)
	}
	if got := Constraint(100, 200, 0); got != 100 {
		t.Errorf("Constraint(100,200,0%%) = %g, want 100", got)
	}
}

// invariantCircuits are the circuits the pure-function invariant is checked
// on: two ISCAS profiles, and a multiplexer bank whose shared selects fan
// out into every bank, so one edit reaches many cones.  On c1908 a
// tolerance-based change cutoff (skip readers when an output moves by less
// than 1e-9 ps) leaves stale readers within these edit sequences.
func invariantCircuits(t *testing.T) []*netlist.Compiled {
	t.Helper()
	var circs []*netlist.Circuit
	for _, name := range []string{"c432", "c1908"} {
		prof, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := prof.Build()
		if err != nil {
			t.Fatal(err)
		}
		circs = append(circs, c)
	}
	mux, err := gen.MuxBank("mux2x3", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var out []*netlist.Compiled
	for _, c := range append(circs, mux) {
		cc, err := c.Compile()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cc)
	}
	return out
}

// requireFresh fails unless every stored word of s — each net's arrivals,
// slews and load — equals, bit for bit, what NewState computes for the same
// choices.  NewState evaluates every pin once on an empty memo, so it never
// reuses an interpolation.
func requireFresh(t *testing.T, s *State, label string) {
	t.Helper()
	fresh, err := s.t.NewState(s.choices)
	if err != nil {
		t.Fatal(err)
	}
	for net, want := range fresh.net {
		got := s.net[net]
		words := [...]struct {
			name      string
			got, want float64
		}{
			{"arrR", got.arrR, want.arrR}, {"arrF", got.arrF, want.arrF},
			{"slewR", got.slewR, want.slewR}, {"slewF", got.slewF, want.slewF},
			{"load", got.load, want.load},
		}
		for _, w := range words {
			if math.Float64bits(w.got) != math.Float64bits(w.want) {
				t.Fatalf("%s: net %d %s = %v (bits %016x), NewState %v (bits %016x)", label, net, w.name,
					w.got, math.Float64bits(w.got), w.want, math.Float64bits(w.want))
			}
		}
	}
	if math.Float64bits(s.Delay()) != math.Float64bits(fresh.Delay()) {
		t.Fatalf("%s: delay %v != NewState %v", label, s.Delay(), fresh.Delay())
	}
}

// A State is a pure function of its choices: after any sequence of choice
// changes, every stored word equals a from-scratch analysis bit for bit.
func TestIncrementalMatchesFull(t *testing.T) {
	for _, cc := range invariantCircuits(t) {
		name := cc.Circuit.Name
		tm := newTimer(t, cc)
		state, err := tm.NewState(tm.FastChoices())
		if err != nil {
			t.Fatal(err)
		}
		randomEdits(t, state, fmt.Sprintf("%s step", name))
	}
}

// randomEdits applies TestIncrementalMatchesFull's random edit sequence to
// s and checks it against NewState after every edit.
func randomEdits(t *testing.T, s *State, label string) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 200; step++ {
		gi, ch := randomChoice(rng, s.t)
		s.SetChoice(gi, ch)
		requireFresh(t, s, fmt.Sprintf("%s %d", label, step))
	}
}

// The per-pin memo survives CopyFrom, so a state reset to another's timing
// starts from entries recorded under unrelated choices.  Those entries may
// only be reused where their key matches: after warming the memo under the
// all-slow vector and under a random one, the random edit sequence from
// an all-fast copy must still be NewState at every step.
func TestMemoHistoryIsInvisible(t *testing.T) {
	for _, cc := range invariantCircuits(t) {
		name := cc.Circuit.Name
		tm := newTimer(t, cc)
		fast, err := tm.NewState(tm.FastChoices())
		if err != nil {
			t.Fatal(err)
		}
		state, err := tm.NewState(tm.SlowChoices())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 100; step++ {
			state.SetChoice(randomChoice(rng, tm))
		}
		state.CopyFrom(fast)
		requireFresh(t, state, name+" after CopyFrom")
		randomEdits(t, state, name+" warm step")
	}
}

// A trial that is set and reverted leaves exactly the bits it found: every
// state along the sequence, before and after each trial, is NewState of its
// choices.  This is what lets the gate-tree descents skip a trial they know
// would be rejected without disturbing the timing of the trials that follow.
func TestSetChoiceRevert(t *testing.T) {
	for _, cc := range invariantCircuits(t) {
		name := cc.Circuit.Name
		tm := newTimer(t, cc)
		state, err := tm.NewState(tm.FastChoices())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for step := 0; step < 300; step++ {
			gi, ch := randomChoice(rng, tm)
			prev := state.Choice(gi)
			state.SetChoice(gi, ch)
			// Keep every third edit so the trials start from assignments
			// far from all-fast.
			if step%3 != 0 {
				state.SetChoice(gi, prev)
			}
			requireFresh(t, state, fmt.Sprintf("%s step %d", name, step))
		}
	}
}

func TestSlowerVersionsNeverFaster(t *testing.T) {
	cc := chainCircuit(t, 8)
	tm := newTimer(t, cc)
	fast, err := tm.Analyze(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	slow, err := tm.Analyze(tm.SlowChoices())
	if err != nil {
		t.Fatal(err)
	}
	if slow <= fast {
		t.Errorf("all-slow delay %g not above all-fast %g", slow, fast)
	}
}

func TestNewRejectsUnmapped(t *testing.T) {
	c := &netlist.Circuit{
		Name:    "x",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"o"},
		Gates:   []netlist.Gate{{Name: "o", Op: netlist.OpXor, Fanin: []string{"a", "b"}}},
	}
	cc, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cc, testLib(t), DefaultConfig()); err == nil {
		t.Error("unmapped circuit accepted")
	}
}

func TestStateArgumentCheck(t *testing.T) {
	cc := chainCircuit(t, 3)
	tm := newTimer(t, cc)
	if _, err := tm.NewState(nil); err == nil {
		t.Error("wrong choice count accepted")
	}
}

func TestDirtySetOrdering(t *testing.T) {
	d := newDirtySet(70)
	for _, v := range []int{5, 3, 69, 1, 64, 3, 0} {
		d.add(v)
	}
	var got []int
	for !d.empty() {
		v := d.pop()
		// Mimic propagation: marks between pops are always downstream.
		if v == 1 {
			d.add(7)
		}
		got = append(got, v)
	}
	want := []int{0, 1, 3, 5, 7, 64, 69}
	if len(got) != len(want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("popped %v, want %v (dedup + ascending order)", got, want)
		}
	}
	d.add(13)
	if d.empty() || d.pop() != 13 || !d.empty() {
		t.Fatal("dirty set not reusable after drain")
	}
}

func TestArrivalMonotoneAlongChain(t *testing.T) {
	cc := chainCircuit(t, 6)
	tm := newTimer(t, cc)
	state, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, g := range cc.Gates {
		a := state.Arrival(g.Out)
		if a <= prev {
			t.Fatalf("arrival not increasing along chain: %g after %g", a, prev)
		}
		prev = a
	}
}

// Clone must produce an independent state: identical timing, no coupling
// when either side is re-timed afterwards.
func TestCloneIndependence(t *testing.T) {
	cc := chainCircuit(t, 8)
	tm := newTimer(t, cc)
	orig, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	clone := orig.Clone()
	if clone.Delay() != orig.Delay() {
		t.Fatalf("clone delay %g != original %g", clone.Delay(), orig.Delay())
	}
	// Re-time the clone; the original must not move.
	before := orig.Delay()
	slow := tm.Cells[3].MinLeakChoice(0)
	clone.SetChoice(3, slow)
	if orig.Delay() != before {
		t.Error("mutating the clone changed the original")
	}
	if clone.Choice(3) != slow || orig.Choice(3) == slow {
		t.Error("choice storage is shared between clone and original")
	}
	// And the clone's incremental result must match a fresh analysis.
	choices := tm.FastChoices()
	choices[3] = slow
	want, err := tm.Analyze(choices)
	if err != nil {
		t.Fatal(err)
	}
	if clone.Delay() != want {
		t.Errorf("clone delay %g != fresh analysis %g", clone.Delay(), want)
	}
}

// CopyFrom must reset a diverged state to the source without re-analysis.
func TestCopyFromResets(t *testing.T) {
	cc := chainCircuit(t, 8)
	tm := newTimer(t, cc)
	base, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	work := base.Clone()
	for gi := 0; gi < 4; gi++ {
		work.SetChoice(gi, tm.Cells[gi].MinLeakChoice(0))
	}
	if work.Delay() == base.Delay() {
		t.Fatal("expected the diverged state to be slower")
	}
	work.CopyFrom(base)
	if work.Delay() != base.Delay() {
		t.Errorf("CopyFrom delay %g != base %g", work.Delay(), base.Delay())
	}
	for gi := range tm.Cells {
		if work.Choice(gi) != base.Choice(gi) {
			t.Fatalf("gate %d choice not restored", gi)
		}
	}
	// Mismatched timers must panic.
	other := newTimer(t, chainCircuit(t, 8))
	otherState, err := other.NewState(other.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across timers did not panic")
		}
	}()
	work.CopyFrom(otherState)
}
