package sta

import (
	"fmt"
	"math/rand"
	"testing"

	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/tech"
)

// lookupTiming is a from-scratch analysis that shares no code with State:
// loads summed in the canonical order (wire and primary-output load, then
// fan-out pin capacitances in fan-out order), arcs resolved through the
// choice's pin permutation, and every table probed with a full Lookup.
type lookupTiming struct {
	arrR, arrF, slewR, slewF, load []float64
	delay                          float64
}

func lookupReference(tm *Timer, choices []*library.Choice) lookupTiming {
	cc, cfg := tm.CC, tm.Cfg
	n := cc.NumNets()
	r := lookupTiming{
		arrR: make([]float64, n), arrF: make([]float64, n),
		slewR: make([]float64, n), slewF: make([]float64, n),
		load: make([]float64, n),
	}
	for net := range r.load {
		l := cfg.WireCapPerFanout * float64(len(cc.Fanout[net]))
		if cc.IsPO[net] {
			l += cfg.OutputLoad
		}
		for _, gi := range cc.Fanout[net] {
			for pin, in := range cc.Gates[gi].In {
				if in == net {
					l += choices[gi].PinCap(pin)
				}
			}
		}
		r.load[net] = l
	}
	for _, pi := range cc.PI {
		r.slewR[pi], r.slewF[pi] = cfg.InputSlew, cfg.InputSlew
	}
	for gi := range cc.Gates {
		g := &cc.Gates[gi]
		load := r.load[g.Out]
		var aR, aF, sR, sF float64
		for pin, in := range g.In {
			arcs := choices[gi].Timing(pin)
			// Inverting cell: output rise launches from input fall.
			aR = max(aR, r.arrF[in]+arcs.Rise.Delay.Lookup(r.slewF[in], load))
			aF = max(aF, r.arrR[in]+arcs.Fall.Delay.Lookup(r.slewR[in], load))
			sR = max(sR, arcs.Rise.Slew.Lookup(r.slewF[in], load))
			sF = max(sF, arcs.Fall.Slew.Lookup(r.slewR[in], load))
		}
		r.arrR[g.Out], r.arrF[g.Out] = aR, aF
		r.slewR[g.Out], r.slewF[g.Out] = sR, sF
	}
	for _, po := range cc.PO {
		r.delay = max(r.delay, r.arrR[po], r.arrF[po])
	}
	return r
}

// NewState probes every table at cached grid coordinates and through each
// choice's pre-resolved Arcs; it must reproduce the Lookup reference bit
// for bit, for fast, slow and random (permuted) choice vectors alike.
func TestNewStateMatchesLookupReference(t *testing.T) {
	for _, name := range []string{"c432", "c880"} {
		tm, _ := benchState(t, name)
		vectors := map[string][]*library.Choice{
			"fast": tm.FastChoices(),
			"slow": tm.SlowChoices(),
		}
		rng := rand.New(rand.NewSource(37))
		permuted := 0
		for v := 0; v < 24; v++ {
			choices := make([]*library.Choice, len(tm.CC.Gates))
			for gi, c := range tm.Cells {
				chs := c.Choices[rng.Intn(c.Template.NumStates())]
				choices[gi] = &chs[rng.Intn(len(chs))]
				if choices[gi].Perm != nil {
					permuted++
				}
			}
			vectors[fmt.Sprintf("random%d", v)] = choices
		}
		if permuted == 0 {
			t.Fatalf("%s: the random vectors picked no permuted choice", name)
		}
		for label, choices := range vectors {
			st, err := tm.NewState(choices)
			if err != nil {
				t.Fatal(err)
			}
			ref := lookupReference(tm, choices)
			for net := 0; net < tm.CC.NumNets(); net++ {
				if st.arrR[net] != ref.arrR[net] || st.arrF[net] != ref.arrF[net] ||
					st.slewR[net] != ref.slewR[net] || st.slewF[net] != ref.slewF[net] ||
					st.netLoad[net] != ref.load[net] {
					t.Fatalf("%s/%s: net %s: state (arr %v,%v slew %v,%v load %v) != reference (arr %v,%v slew %v,%v load %v)",
						name, label, tm.CC.NetName[net],
						st.arrR[net], st.arrF[net], st.slewR[net], st.slewF[net], st.netLoad[net],
						ref.arrR[net], ref.arrF[net], ref.slewR[net], ref.slewF[net], ref.load[net])
				}
			}
			if st.Delay() != ref.delay {
				t.Fatalf("%s/%s: delay %v != reference %v", name, label, st.Delay(), ref.delay)
			}
		}
	}
}

// A table whose axis holds the grid's values on a separate slice is off
// the grid the cached coordinates index, so New must refuse the library
// rather than time it.
func TestNewRejectsOffGridTables(t *testing.T) {
	cc := chainCircuit(t, 4)
	lib, err := library.Build(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	name := (&netlist.Gate{Op: netlist.OpNot, Fanin: []string{"a"}}).CellName()
	c := lib.Cell(name)
	if _, err := New(cc, lib, DefaultConfig()); err != nil {
		t.Fatalf("on-grid library refused: %v", err)
	}
	for label, v := range map[string]*library.Version{"version": c.Versions[len(c.Versions)-1], "slow": c.Slow} {
		arc := &v.Timing[0].Fall
		orig := arc.Slew
		moved := *orig
		moved.X = append([]float64(nil), orig.X...)
		arc.Slew = &moved
		if _, err := New(cc, lib, DefaultConfig()); err == nil {
			t.Errorf("%s: table on a copied slew axis accepted", label)
		}
		arc.Slew = orig
	}
}
