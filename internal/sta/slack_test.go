package sta

import (
	"math"
	"strings"
	"testing"

	"svto/internal/gen"
)

func benchState(t *testing.T, name string) (*Timer, *State) {
	t.Helper()
	prof, err := gen.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		t.Fatal(err)
	}
	tm := newTimer(t, cc)
	st, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	return tm, st
}

func TestSlacksAtCircuitDelay(t *testing.T) {
	_, st := benchState(t, "c432")
	rep := st.Slacks(st.Delay())
	// Required time equals the circuit delay: worst slack is exactly 0.
	if math.Abs(rep.WorstSlack) > 1e-6 {
		t.Errorf("worst slack = %g, want 0", rep.WorstSlack)
	}
	// No net on the critical path has positive arrival beyond required.
	for _, net := range rep.Critical {
		if rep.Slack[net] < -1e-6 {
			t.Errorf("critical net %d has negative slack %g at the delay bound", net, rep.Slack[net])
		}
	}
}

func TestSlacksWithMargin(t *testing.T) {
	_, st := benchState(t, "c432")
	d := st.Delay()
	rep := st.Slacks(d + 100)
	if math.Abs(rep.WorstSlack-100) > 1e-6 {
		t.Errorf("worst slack = %g, want 100", rep.WorstSlack)
	}
	tight := st.Slacks(d - 50)
	if math.Abs(tight.WorstSlack+50) > 1e-6 {
		t.Errorf("worst slack = %g, want -50", tight.WorstSlack)
	}
}

func TestCriticalPathStructure(t *testing.T) {
	tm, st := benchState(t, "c880")
	rep := st.Slacks(st.Delay())
	if len(rep.Critical) < 2 {
		t.Fatalf("critical path too short: %d", len(rep.Critical))
	}
	cc := tm.CC
	// Starts at a PI, ends at the worst PO.
	if cc.GateOfNet[rep.Critical[0]] != -1 {
		t.Error("critical path does not start at a primary input")
	}
	last := rep.Critical[len(rep.Critical)-1]
	if !cc.IsPO[last] {
		t.Error("critical path does not end at a primary output")
	}
	if got := st.Arrival(last); math.Abs(got-st.Delay()) > 1e-9 {
		t.Errorf("critical endpoint arrival %g != circuit delay %g", got, st.Delay())
	}
	// Consecutive nets are connected through a gate.
	for i := 1; i < len(rep.Critical); i++ {
		gi := cc.GateOfNet[rep.Critical[i]]
		if gi < 0 {
			t.Fatalf("non-input net %d has no driver", rep.Critical[i])
		}
		found := false
		for _, in := range cc.Gates[gi].In {
			if in == rep.Critical[i-1] {
				found = true
			}
		}
		if !found {
			t.Fatalf("path step %d not connected", i)
		}
		// Arrivals increase along the path.
		if st.Arrival(rep.Critical[i]) <= st.Arrival(rep.Critical[i-1]) {
			t.Fatalf("arrival not increasing along critical path at step %d", i)
		}
	}
}

// Slack consistency: for every gate arc, the input's per-transition
// required time respects the output's requirement minus the arc delay.
func TestSlackConsistency(t *testing.T) {
	tm, st := benchState(t, "c432")
	rep := st.Slacks(st.Delay())
	cc := tm.CC
	for gi := range cc.Gates {
		g := &cc.Gates[gi]
		ch := st.Choice(gi)
		load := st.net[g.Out].load
		for pin, in := range g.In {
			arcs := ch.Timing(pin)
			if outR := rep.RequiredRise[g.Out]; !math.IsInf(outR, 1) {
				bound := outR - arcs.Rise.Delay.Lookup(st.net[in].slewF, load)
				if rep.RequiredFall[in] > bound+1e-9 {
					t.Fatalf("gate %d pin %d: requiredFall(in) %g exceeds bound %g", gi, pin, rep.RequiredFall[in], bound)
				}
			}
			if outF := rep.RequiredFall[g.Out]; !math.IsInf(outF, 1) {
				bound := outF - arcs.Fall.Delay.Lookup(st.net[in].slewR, load)
				if rep.RequiredRise[in] > bound+1e-9 {
					t.Fatalf("gate %d pin %d: requiredRise(in) %g exceeds bound %g", gi, pin, rep.RequiredRise[in], bound)
				}
			}
		}
	}
}

// At required = circuit delay, every net on the critical path has ~zero
// slack (the transition-aware backward pass mirrors the forward pass).
func TestCriticalPathZeroSlack(t *testing.T) {
	_, st := benchState(t, "c432")
	rep := st.Slacks(st.Delay())
	for _, net := range rep.Critical {
		if math.Abs(rep.Slack[net]) > 1e-6 {
			t.Fatalf("critical net %d slack %g, want ~0", net, rep.Slack[net])
		}
	}
}

func TestFormatCritical(t *testing.T) {
	_, st := benchState(t, "c432")
	rep := st.Slacks(st.Delay())
	text := st.FormatCritical(rep)
	if !strings.Contains(text, "critical path") || !strings.Contains(text, "(input)") {
		t.Errorf("report missing content:\n%s", text)
	}
}
