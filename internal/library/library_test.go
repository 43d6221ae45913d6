package library

import (
	"math"
	"testing"

	"svto/internal/tech"
)

func lib4(t *testing.T) *Library {
	t.Helper()
	l, err := Cached(tech.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func lib2(t *testing.T) *Library {
	t.Helper()
	l, err := Cached(tech.Default(), TwoOption())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Table 2 of the paper: required cell-version counts.  NOR2 comes out one
// below the paper's 8 because our generator discovers an extra legal
// sharing (state-11's fast-fall version coincides with the state-01
// min-leak version); the trade-off coverage is identical.
func TestTable2VersionCounts(t *testing.T) {
	l4, l2 := lib4(t), lib2(t)
	want := map[string][2]int{
		"INV":   {5, 3},
		"NAND2": {5, 3},
		"NAND3": {5, 3},
		"NOR2":  {7, 4}, // paper: 8, see comment above
		"NOR3":  {9, 5},
	}
	for name, w := range want {
		if got := len(l4.Cell(name).Versions); got != w[0] {
			t.Errorf("%s 4-option versions = %d, want %d", name, got, w[0])
		}
		if got := len(l2.Cell(name).Versions); got != w[1] {
			t.Errorf("%s 2-option versions = %d, want %d", name, got, w[1])
		}
	}
	// The reduced library must be roughly half the size of the full one
	// (the paper's motivation for the 2-option trade-off).
	if t4, t2 := l4.TotalVersions(), l2.TotalVersions(); t2*3 > t4*2 {
		t.Errorf("2-option library (%d) should be much smaller than 4-option (%d)", t2, t4)
	}
}

// Table 1 of the paper: NAND2 state-11 trade-off points.
func TestTable1NAND2Tradeoffs(t *testing.T) {
	c := lib4(t).Cell("NAND2")
	choices := c.Choices[3] // state 11
	if len(choices) != 4 {
		t.Fatalf("NAND2@11 should have 4 choices, got %d", len(choices))
	}
	byKind := map[OptionKind]*Choice{}
	for i := range choices {
		byKind[choices[i].Kind] = &choices[i]
	}
	anchors := []struct {
		kind OptionKind
		leak float64
		tol  float64
	}{
		{KindMinDelay, 270.4, 15},
		{KindFastRise, 109.1, 12},
		{KindFastFall, 91.4, 10},
		{KindMinLeak, 19.5, 3},
	}
	for _, a := range anchors {
		ch := byKind[a.kind]
		if ch == nil {
			t.Fatalf("NAND2@11 missing %s choice", a.kind)
		}
		if math.Abs(ch.Leak-a.leak) > a.tol {
			t.Errorf("NAND2@11 %s leak = %.1f, want ~%.1f", a.kind, ch.Leak, a.leak)
		}
	}
	// Normalized delays: min-leak rises 1.36, falls 1.27; fast-fall keeps
	// falls at 1.00; fast-rise keeps pin A rise at 1.00.
	ml := byKind[KindMinLeak]
	if f := ml.RiseFactor(0); math.Abs(f-1.36) > 0.01 {
		t.Errorf("min-leak rise factor = %.3f, want 1.36", f)
	}
	if f := ml.FallFactor(0); math.Abs(f-1.27) > 0.01 {
		t.Errorf("min-leak fall factor = %.3f, want 1.27", f)
	}
	ff := byKind[KindFastFall]
	if ff.FallFactor(0) != 1 || ff.FallFactor(1) != 1 {
		t.Errorf("fast-fall fall factors = %.2f/%.2f, want 1/1", ff.FallFactor(0), ff.FallFactor(1))
	}
	fr := byKind[KindFastRise]
	if math.Min(fr.RiseFactor(0), fr.RiseFactor(1)) != 1 {
		t.Errorf("fast-rise should keep one rise at 1.00, got %.2f/%.2f", fr.RiseFactor(0), fr.RiseFactor(1))
	}
}

// Paper figure 3(e)/(f): NAND2 states 00 and 10 share a single min-leak
// version with just one high-Vt NMOS, and state 01 reuses it via pin
// reordering.
func TestNAND2VersionSharing(t *testing.T) {
	c := lib4(t).Cell("NAND2")
	ml00 := c.MinLeakChoice(0)
	ml01 := c.MinLeakChoice(1)
	ml10 := c.MinLeakChoice(2)
	if ml00.Version != ml01.Version || ml00.Version != ml10.Version {
		t.Fatalf("states 00/01/10 should share one min-leak version, got v%d/v%d/v%d",
			ml00.Version.Index, ml01.Version.Index, ml10.Version.Index)
	}
	if got := ml00.Version.Assign.SlowCount(); got != 1 {
		t.Errorf("shared min-leak version should have exactly 1 slow device, got %d", got)
	}
	// Exactly one of 01/10 uses a pin permutation (whichever differs from
	// the canonical state).
	permed := 0
	if ml01.Perm != nil {
		permed++
	}
	if ml10.Perm != nil {
		permed++
	}
	if permed != 1 {
		t.Errorf("exactly one of 01/10 should be pin-reordered, got %d", permed)
	}
}

func TestChoicesSortedAndBounded(t *testing.T) {
	for _, l := range []*Library{lib4(t), lib2(t)} {
		for _, name := range l.Names {
			c := l.Cell(name)
			maxChoices := l.Opt.TradeoffPoints
			for s, choices := range c.Choices {
				if len(choices) == 0 {
					t.Fatalf("%s state %d: no choices", name, s)
				}
				if len(choices) > maxChoices {
					t.Errorf("%s state %d: %d choices exceeds %d", name, s, len(choices), maxChoices)
				}
				for i := 1; i < len(choices); i++ {
					if choices[i].Leak < choices[i-1].Leak {
						t.Errorf("%s state %d: choices not sorted by leakage", name, s)
					}
				}
				for i := range choices {
					ch := &choices[i]
					if got := ch.Version.Leak[ch.TemplateState]; got != ch.Leak {
						t.Errorf("%s state %d: choice leak %.2f != version leak %.2f", name, s, ch.Leak, got)
					}
				}
				// The min-delay choice must exist in every state.
				c.FastChoice(uint(s))
			}
		}
	}
}

func TestMinLeakChoiceIsBest(t *testing.T) {
	l := lib4(t)
	for _, name := range l.Names {
		c := l.Cell(name)
		for s := range c.Choices {
			ml := c.MinLeakChoice(uint(s))
			fast := c.FastChoice(uint(s))
			if ml.Leak > fast.Leak {
				t.Errorf("%s state %d: min-leak choice (%.1f) above fast choice (%.1f)", name, s, ml.Leak, fast.Leak)
			}
		}
	}
}

func TestVtOnlyLibraryHasNoThickOxide(t *testing.T) {
	opt := DefaultOptions()
	opt.VtOnly = true
	l, err := Cached(tech.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range l.Names {
		for _, v := range l.Cell(name).Versions {
			for _, c := range append(append([]tech.Corner{}, v.Assign.Up...), v.Assign.Down...) {
				if c.Tox == tech.ToxThick {
					t.Fatalf("%s %s: thick oxide in Vt-only library", name, v.Name)
				}
			}
		}
	}
	// A Vt-only library cannot fix gate leakage: NAND2@11 min-leak should
	// stay well above the dual-Tox library's.
	full := lib4(t)
	vtML := l.Cell("NAND2").MinLeakChoice(3).Leak
	fullML := full.Cell("NAND2").MinLeakChoice(3).Leak
	if vtML < 3*fullML {
		t.Errorf("Vt-only NAND2@11 min-leak %.1f should be >> dual-Tox %.1f", vtML, fullML)
	}
}

func TestUniformStackLibrary(t *testing.T) {
	opt := DefaultOptions()
	opt.UniformStack = true
	l, err := Cached(tech.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range l.Names {
		c := l.Cell(name)
		tpl := c.Template
		for _, v := range c.Versions {
			for _, grp := range tpl.PullUp.StackGroups() {
				for _, d := range grp[1:] {
					if v.Assign.Up[d] != v.Assign.Up[grp[0]] {
						t.Fatalf("%s %s: non-uniform pull-up stack %v", name, v.Name, grp)
					}
				}
			}
			for _, grp := range tpl.PullDown.StackGroups() {
				for _, d := range grp[1:] {
					if v.Assign.Down[d] != v.Assign.Down[grp[0]] {
						t.Fatalf("%s %s: non-uniform pull-down stack %v", name, v.Name, grp)
					}
				}
			}
		}
	}
	// Uniform stacks trade a touch of either leakage or delay: the
	// min-leak choice may leak slightly less than the individual-control
	// one (it is forced to slow the whole stack where individual control
	// stops within tolerance), but then it must not be faster.
	full := lib4(t)
	for s := uint(0); s < 4; s++ {
		u := l.Cell("NAND2").MinLeakChoice(s)
		f := full.Cell("NAND2").MinLeakChoice(s)
		if u.Leak < f.Leak-1e-9 && u.Version.MaxFactor < f.Version.MaxFactor-1e-9 {
			t.Errorf("uniform-stack NAND2 state %d min-leak strictly dominates individual control (leak %.2f<%.2f, factor %.2f<%.2f)",
				s, u.Leak, f.Leak, u.Version.MaxFactor, f.Version.MaxFactor)
		}
		if u.Leak > f.Leak+2 {
			t.Errorf("uniform-stack NAND2 state %d min-leak %.2f far above individual %.2f", s, u.Leak, f.Leak)
		}
	}
}

func TestSlowVersion(t *testing.T) {
	l := lib4(t)
	p := l.Tech
	want := p.NMOS.RonHighVt * p.NMOS.RonThickTox
	for _, name := range l.Names {
		c := l.Cell(name)
		if c.Slow == nil {
			t.Fatalf("%s: missing slow version", name)
		}
		if math.Abs(c.Slow.MaxFactor-want) > 0.01 {
			t.Errorf("%s slow MaxFactor = %.3f, want %.3f", name, c.Slow.MaxFactor, want)
		}
		// No offered choice may be slower than the all-slow version.
		for s, choices := range c.Choices {
			for i := range choices {
				if choices[i].Version.MaxFactor > c.Slow.MaxFactor+1e-9 {
					t.Errorf("%s state %d: choice slower than all-slow version", name, s)
				}
			}
		}
	}
}

func TestVersionZeroIsFast(t *testing.T) {
	for _, l := range []*Library{lib4(t), lib2(t)} {
		for _, name := range l.Names {
			c := l.Cell(name)
			if c.Fast().MaxFactor != 1 {
				t.Errorf("%s: version 0 MaxFactor = %g, want 1", name, c.Fast().MaxFactor)
			}
			if c.Fast().Assign.SlowCount() != 0 {
				t.Errorf("%s: version 0 has slow devices", name)
			}
		}
	}
}

func TestCachedReturnsSameLibrary(t *testing.T) {
	a, err := Cached(tech.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached(tech.Default(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Cached rebuilt an identical library")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{TradeoffPoints: 3}).Validate(); err == nil {
		t.Error("TradeoffPoints=3 accepted")
	}
	if err := (Options{TradeoffPoints: 4, LeakTolAbs: -1}).Validate(); err == nil {
		t.Error("negative tolerance accepted")
	}
	if _, err := Build(tech.Default(), Options{TradeoffPoints: 7}); err == nil {
		t.Error("Build accepted bad options")
	}
}

func TestPermHelpers(t *testing.T) {
	perms := allPerms([][]int{{0, 1}}, 2)
	if len(perms) != 2 {
		t.Fatalf("2-pin symmetric group: %d perms, want 2", len(perms))
	}
	if applyPerm(0b01, []int{1, 0}) != 0b10 {
		t.Error("applyPerm swap wrong")
	}
	if applyPerm(0b01, []int{0, 1}) != 0b01 {
		t.Error("applyPerm identity wrong")
	}
	perms4 := allPerms([][]int{{0, 1, 2, 3}}, 4)
	if len(perms4) != 24 {
		t.Errorf("4-pin symmetric group: %d perms, want 24", len(perms4))
	}
	classes, _ := stateClasses([][]int{{0, 1}}, 2)
	if len(classes) != 3 {
		t.Errorf("NAND2-like classes = %d, want 3 (00, {01,10}, 11)", len(classes))
	}
	// AOI21: pins {0,1} symmetric, pin 2 fixed.
	classesAOI, _ := stateClasses([][]int{{0, 1}}, 3)
	if len(classesAOI) != 6 {
		t.Errorf("AOI21 classes = %d, want 6", len(classesAOI))
	}
	if p := findPerm(perms, 0b01, 0b10); p == nil {
		t.Error("findPerm failed for swap")
	}
	if p := findPerm(perms, 0b00, 0b11); p != nil {
		t.Error("findPerm found impossible mapping")
	}
}

func TestChoiceAccessors(t *testing.T) {
	c := lib4(t).Cell("NAND2")
	var permed *Choice
	for s := range c.Choices {
		for i := range c.Choices[s] {
			if c.Choices[s][i].Perm != nil {
				permed = &c.Choices[s][i]
			}
		}
	}
	if permed == nil {
		t.Fatal("expected at least one pin-reordered choice in NAND2")
	}
	if permed.TemplatePin(0) == 0 && permed.TemplatePin(1) == 1 {
		t.Error("permuted choice maps pins as identity")
	}
	if permed.PinCap(0) <= 0 {
		t.Error("pin cap should be positive")
	}
	arcs := permed.Timing(0)
	if arcs.Rise.Delay == nil || arcs.Fall.Slew == nil {
		t.Error("timing tables missing")
	}
}

func TestNitridedProcessGetsPMOSThickOxide(t *testing.T) {
	l, err := Cached(tech.Nitrided(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// With appreciable PMOS gate leakage, at least one version somewhere
	// should assign thick oxide to a PMOS device (impossible under SiO2).
	found := false
	for _, name := range l.Names {
		for _, v := range l.Cell(name).Versions {
			for _, c := range v.Assign.Up {
				if c.Tox == tech.ToxThick {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("nitrided process never assigned PMOS thick oxide")
	}
}

// Global invariants over every cell, version and choice in the library.
func TestLibraryWideInvariants(t *testing.T) {
	for _, l := range []*Library{lib4(t), lib2(t)} {
		for _, name := range l.Names {
			c := l.Cell(name)
			ns := c.Template.NumStates()
			for _, v := range append(append([]*Version(nil), c.Versions...), c.Slow) {
				if len(v.Leak) != ns || len(v.Isub) != ns {
					t.Fatalf("%s %s: characterization arrays wrong length", name, v.Name)
				}
				for s := 0; s < ns; s++ {
					if v.Isub[s] < 0 || v.Leak[s] < v.Isub[s]-1e-9 {
						t.Fatalf("%s %s state %d: Isub %.3f > Leak %.3f", name, v.Name, s, v.Isub[s], v.Leak[s])
					}
					// The all-slow version leaks no more than the fast
					// version in every state.
					if v == c.Slow && v.Leak[s] > c.Fast().Leak[s]+1e-9 {
						t.Fatalf("%s state %d: slow version leaks more than fast", name, s)
					}
				}
				if len(v.Timing) != c.Template.NumInputs || len(v.PinCap) != c.Template.NumInputs {
					t.Fatalf("%s %s: per-pin arrays wrong length", name, v.Name)
				}
				for pin := 0; pin < c.Template.NumInputs; pin++ {
					if v.PinCap[pin] <= 0 {
						t.Fatalf("%s %s pin %d: nonpositive cap", name, v.Name, pin)
					}
					if v.RiseFactor[pin] < 1-1e-9 || v.FallFactor[pin] < 1-1e-9 {
						t.Fatalf("%s %s pin %d: factor below 1", name, v.Name, pin)
					}
				}
			}
			for s, choices := range c.Choices {
				for i := range choices {
					ch := &choices[i]
					if ch.Perm != nil && len(ch.Perm) != c.Template.NumInputs {
						t.Fatalf("%s state %d: malformed perm", name, s)
					}
					if int(ch.TemplateState) >= ns {
						t.Fatalf("%s state %d: template state out of range", name, s)
					}
					if ch.Isub > ch.Leak+1e-9 {
						t.Fatalf("%s state %d: choice Isub above Leak", name, s)
					}
				}
			}
		}
	}
}

// BuildCell reuses the network solves enumeration already made when it
// characterizes versions; every table entry must still equal a fresh
// CharacterizeLeakage of the version, bit for bit, under every policy.
func TestVersionLeakageMatchesFreshSolve(t *testing.T) {
	uniform, vtOnly := DefaultOptions(), DefaultOptions()
	uniform.UniformStack = true
	vtOnly.VtOnly = true
	policies := map[string]Options{"4-option": DefaultOptions(), "2-option": TwoOption(), "uniform-stack": uniform, "vt-only": vtOnly}
	p := tech.Default()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, opt := range policies {
		l, err := Cached(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, cn := range l.Names {
			c := l.Cell(cn)
			for _, v := range append(append([]*Version{}, c.Versions...), c.Slow) {
				for s := range v.Leak {
					lk, err := c.Template.CharacterizeLeakage(p, uint(s), v.Assign)
					if err != nil {
						t.Fatal(err)
					}
					if !same(v.Leak[s], lk.Total()) || !same(v.Isub[s], lk.IsubUp+lk.IsubDown) {
						t.Fatalf("%s %s state %d: Leak/Isub %v/%v, fresh solve %v/%v",
							name, v.Name, s, v.Leak[s], v.Isub[s], lk.Total(), lk.IsubUp+lk.IsubDown)
					}
				}
			}
			for s, choices := range c.Choices {
				for _, ch := range choices {
					ts := ch.TemplateState
					if !same(ch.Leak, ch.Version.Leak[ts]) || !same(ch.Isub, ch.Version.Isub[ts]) {
						t.Fatalf("%s %s state %d: choice %s disagrees with its version", name, cn, s, ch.Version.Name)
					}
				}
			}
		}
	}
}
