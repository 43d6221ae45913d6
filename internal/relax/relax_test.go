package relax

import (
	"math"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/tech"
)

// delayEps mirrors the search's delay-budget acceptance epsilon
// (core.DelayEps), which the relaxation's slacks are computed against.
const delayEps = 1e-9

func newTimer(t *testing.T, build func() (*netlist.Circuit, error)) *sta.Timer {
	t.Helper()
	circ, err := build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		t.Fatal(err)
	}
	timer, err := sta.New(cc, lib, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return timer
}

func leakObj(ch *library.Choice) float64 { return ch.Leak }

// check identifies one memoized delay check: a gate and a probe key.
type check struct {
	gate int
	key  probeKey
}

// TestScreenedBuildMatchesUnscreened builds every table twice, once with
// the incremental-timer screen and once probing sta.Lower for every slack,
// and requires every Known/Unknown word to match bit for bit.  It also
// checks the screen's soundness premise directly: for every choice the
// screen settled, the certified lower bound sta.Lower reports must not
// exceed the screen delay by more than slackGuard.
func TestScreenedBuildMatchesUnscreened(t *testing.T) {
	all := []float64{0, 0.001, 0.002, 0.02, 0.05, 0.10, 0.25}
	mux := func(sel, banks int) (*netlist.Circuit, error) {
		return gen.MuxBank("mux", sel, banks)
	}
	c432, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		build     func() (*netlist.Circuit, error)
		penalties []float64
	}{
		{"fuzz6", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz6", 3, 6, 18) }, all},
		{"fuzz8", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz8", 11, 8, 30) }, all},
		{"fuzz12", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz12", 29, 12, 45) }, all},
		{"relaxeq", func() (*netlist.Circuit, error) { return gen.RandomLogic("relaxeq", 7, 8, 24) }, all},
		{"mux1x7", func() (*netlist.Circuit, error) { return mux(1, 7) }, all},
		{"mux2x3", func() (*netlist.Circuit, error) { return mux(2, 3) }, all},
		{"mux1x3", func() (*netlist.Circuit, error) { return mux(1, 3) }, all},
		{"c432", c432.Build, []float64{0, 0.05}},
	}
	var screens, dlbs map[check]float64
	observe := func(gate int, ch *library.Choice, screen, dlb float64) {
		k := check{gate, keyOf(ch)}
		if math.IsNaN(screen) {
			dlbs[k] = dlb
		} else if math.IsNaN(dlb) {
			screens[k] = screen
		}
	}

	nsettled := 0
	for _, c := range cases {
		timer := newTimer(t, c.build)
		dmin, dmax, err := timer.DelayBounds()
		if err != nil {
			t.Fatal(err)
		}
		guard := slackGuard(len(timer.Cells))
		for _, penalty := range c.penalties {
			cfg := Config{Obj: leakObj, Budget: sta.Constraint(dmin, dmax, penalty), DelayEps: delayEps}
			dlbs, screens = map[check]float64{}, map[check]float64{}
			ref, err := build(timer, cfg, false, observe)
			if err != nil {
				t.Fatal(err)
			}
			got, err := build(timer, cfg, true, observe)
			if err != nil {
				t.Fatal(err)
			}
			diff := 0
			for gi := range ref.Known {
				for s := range ref.Known[gi] {
					if math.Float64bits(got.Known[gi][s]) != math.Float64bits(ref.Known[gi][s]) {
						diff++
						t.Errorf("%s pen=%g: Known[%d][%d] = %v screened, %v unscreened",
							c.name, penalty, gi, s, got.Known[gi][s], ref.Known[gi][s])
					}
				}
				if math.Float64bits(got.Unknown[gi]) != math.Float64bits(ref.Unknown[gi]) {
					diff++
					t.Errorf("%s pen=%g: Unknown[%d] = %v screened, %v unscreened",
						c.name, penalty, gi, got.Unknown[gi], ref.Unknown[gi])
				}
			}
			if got.ActiveEntries() != ref.ActiveEntries() {
				t.Errorf("%s pen=%g: %d active entries screened, %d unscreened",
					c.name, penalty, got.ActiveEntries(), ref.ActiveEntries())
			}
			// The unscreened build probed every choice the screened one
			// settled, unless the two resolved different choice sets, which
			// the word comparison above has already reported.
			for k, screen := range screens {
				dlb, ok := dlbs[k]
				if !ok {
					t.Errorf("%s pen=%g: gate %d: the unscreened build never probed a settled choice", c.name, penalty, k.gate)
				} else if !(dlb <= screen+guard) {
					t.Errorf("%s pen=%g: gate %d settled at screen delay %v but Probe = %v",
						c.name, penalty, k.gate, screen, dlb)
				}
			}
			nsettled += len(screens)
			t.Logf("%s pen=%g: %d differing words, %d choices settled by the screen, %d active entries",
				c.name, penalty, diff, len(screens), ref.ActiveEntries())
		}
	}
	if nsettled == 0 {
		t.Fatal("the screen settled no choice; the premise check exercised nothing")
	}
}

// TestKnownIsCheapestAcceptableChoice checks the tables against their
// definition, with sta.Lower probed directly: every Known word of the
// probe-only build is bit-equal to the objective of a choice the descent
// can accept (MaxFactor ≤ 1 or Probe ≤ T'), every cheaper choice of that
// (gate, state) is rejected (Probe > T'), and every Unknown word is the
// minimum of its gate's Known row.
func TestKnownIsCheapestAcceptableChoice(t *testing.T) {
	all := []float64{0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.25}
	cases := []struct {
		name  string
		build func() (*netlist.Circuit, error)
	}{
		{"fuzz6", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz6", 3, 6, 18) }},
		{"fuzz8", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz8", 11, 8, 30) }},
		{"fuzz12", func() (*netlist.Circuit, error) { return gen.RandomLogic("fuzz12", 29, 12, 45) }},
		{"relaxeq", func() (*netlist.Circuit, error) { return gen.RandomLogic("relaxeq", 7, 8, 24) }},
		{"mux1x3", func() (*netlist.Circuit, error) { return gen.MuxBank("mux", 1, 3) }},
		{"mux2x3", func() (*netlist.Circuit, error) { return gen.MuxBank("mux", 2, 3) }},
	}
	eliminated := 0
	for _, c := range cases {
		timer := newTimer(t, c.build)
		lb, err := sta.NewLower(timer)
		if err != nil {
			t.Fatal(err)
		}
		dlbs := map[check]float64{} // Probe does not depend on the budget
		probe := func(gi int, ch *library.Choice) float64 {
			k := check{gi, keyOf(ch)}
			if dlb, ok := dlbs[k]; ok {
				return dlb
			}
			dlbs[k] = lb.Probe(gi, ch)
			return dlbs[k]
		}
		dmin, dmax, err := timer.DelayBounds()
		if err != nil {
			t.Fatal(err)
		}
		for _, penalty := range all {
			cfg := Config{Obj: leakObj, Budget: sta.Constraint(dmin, dmax, penalty), DelayEps: delayEps}
			tPrime := cfg.Budget + cfg.DelayEps + slackGuard(len(timer.Cells))
			eng, err := build(timer, cfg, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for gi, row := range eng.Known {
				unknown := math.Inf(1)
				for s, known := range row {
					unknown = math.Min(unknown, known)
					hit := false
					for ci := range timer.Cells[gi].Choices[s] {
						ch := &timer.Cells[gi].Choices[s][ci]
						o := leakObj(ch)
						if o > known {
							continue
						}
						accepted := ch.Version.MaxFactor <= 1 || probe(gi, ch) <= tPrime
						switch {
						case o < known && accepted:
							t.Errorf("%s pen=%g: Known[%d][%d] = %v, but a choice the descent accepts costs %v",
								c.name, penalty, gi, s, known, o)
						case o < known:
							eliminated++
						case math.Float64bits(o) == math.Float64bits(known) && accepted:
							hit = true
						}
					}
					if !hit {
						t.Errorf("%s pen=%g: Known[%d][%d] = %v is no accepted choice's objective",
							c.name, penalty, gi, s, known)
					}
				}
				if math.Float64bits(eng.Unknown[gi]) != math.Float64bits(unknown) {
					t.Errorf("%s pen=%g: Unknown[%d] = %v, min of its Known row %v",
						c.name, penalty, gi, eng.Unknown[gi], unknown)
				}
			}
		}
	}
	if eliminated == 0 {
		t.Fatal("no choice was eliminated; the rejection check exercised nothing")
	}
}
