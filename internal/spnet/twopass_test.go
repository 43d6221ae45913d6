package spnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"svto/internal/device"
	"svto/internal/tech"
)

// twoPassSolve is the reference Solve must match bit for bit.  It solves the
// way the package did before comparisons were settled early: every bisection
// step solves the rest of the chain exactly (refBalance), and nothing in it
// calls balance, exceeds or current, so a comparison settled the wrong way
// shows up as a different node.  One full pass yields the network current
// and a second, identical pass records the per-device biases; Solve folds
// the current into the recording pass.
func twoPassSolve(n *Network, p *tech.Params, corners []tech.Corner, gateV []float64, vtop, vbot float64) *Solution {
	ev := &evalCtx{p: p, net: n, corners: corners, gateV: gateV}
	sol := &Solution{Current: refCurrent(n.Root, ev, vtop, vbot)}
	twoPassRecord(n.Root, ev, vtop, vbot, sol)
	return sol
}

// refCurrent is Element.current with every internal node solved exactly.
func refCurrent(e Element, ev *evalCtx, vtop, vbot float64) float64 {
	switch e := e.(type) {
	case DevRef:
		return ev.dev(e).ChannelCurrent(ev.p, ev.gateV[e.Gate], vtop, vbot)
	case Series:
		return refChain(e, ev, vtop, vbot)
	case Parallel:
		total := 0.0
		for _, c := range e {
			total += refCurrent(c, ev, vtop, vbot)
		}
		return total
	default:
		panic(fmt.Sprintf("spnet: unknown element %T", e))
	}
}

// refChain is refCurrent for a chain, kept apart so the rest of a chain is
// not boxed into an Element at every bisection step.
func refChain(s Series, ev *evalCtx, vtop, vbot float64) float64 {
	if len(s) == 1 {
		return refCurrent(s[0], ev, vtop, vbot)
	}
	return refCurrent(s[0], ev, vtop, refBalance(s, ev, vtop, vbot))
}

// refBalance bisects the node below s[0], comparing the head's current with
// the rest's exact current at every step.
func refBalance(s Series, ev *evalCtx, vtop, vbot float64) float64 {
	lo, hi := vbot, vtop
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < bisectIters; i++ {
		mid := (lo + hi) / 2
		if refCurrent(s[0], ev, vtop, mid) > refChain(s[1:], ev, mid, vbot) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func twoPassRecord(e Element, ev *evalCtx, vtop, vbot float64, sol *Solution) {
	switch e := e.(type) {
	case DevRef:
		d := ev.dev(e)
		sol.Biases = append(sol.Biases, Bias{
			Ref:     e,
			Device:  d,
			VG:      ev.gateV[e.Gate],
			VTop:    vtop,
			VBot:    vbot,
			Channel: d.ChannelCurrent(ev.p, ev.gateV[e.Gate], vtop, vbot),
		})
	case Series:
		if len(e) == 1 {
			twoPassRecord(e[0], ev, vtop, vbot, sol)
			return
		}
		vmid := refBalance(e, ev, vtop, vbot)
		twoPassRecord(e[0], ev, vtop, vmid, sol)
		twoPassRecord(e[1:], ev, vmid, vbot, sol)
	case Parallel:
		for _, c := range e {
			twoPassRecord(c, ev, vtop, vbot, sol)
		}
	default:
		panic(fmt.Sprintf("spnet: unknown element %T", e))
	}
}

// TwoPassSolve exposes the reference to the external template test.
var TwoPassSolve = twoPassSolve

// SameSolution returns "" when got and want agree bit for bit, else a
// description of the first difference.
func SameSolution(got, want *Solution) string {
	if math.Float64bits(got.Current) != math.Float64bits(want.Current) {
		return fmt.Sprintf("Current %v, two-pass %v", got.Current, want.Current)
	}
	if len(got.Biases) != len(want.Biases) {
		return fmt.Sprintf("%d biases, two-pass %d", len(got.Biases), len(want.Biases))
	}
	for i := range got.Biases {
		g, w := got.Biases[i], want.Biases[i]
		same := g.Ref == w.Ref && g.Device == w.Device
		for _, f := range [][2]float64{{g.VG, w.VG}, {g.VTop, w.VTop}, {g.VBot, w.VBot}, {g.Channel, w.Channel}} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same {
			return fmt.Sprintf("bias %d = %+v, two-pass %+v", i, g, w)
		}
	}
	return ""
}

// evals returns the number of device evaluations one refCurrent call on e
// costs: a Series bisects bisectIters times over its head and its tail.
func evals(e Element) int {
	switch e := e.(type) {
	case Series:
		if len(e) == 1 {
			return evals(e[0])
		}
		return bisectIters*(evals(e[0])+evals(e[1:])) + evals(e[0])
	case Parallel:
		total := 0
		for _, c := range e {
			total += evals(c)
		}
		return total
	default:
		return 1
	}
}

// Random topologies nest Series and Parallel deeper than any template, so
// every way a Series can hand its first element's current back is covered,
// and put whole chains at the head of a chain, where exceeds may not use its
// bracket.  Each network is solved with rail gate voltages, then with rails
// drawn anywhere in [0, Vdd] in either order, gates between the rails and
// non-integer widths: nodes where no template state puts them, currents that
// cross mid-interval, near-equal head and rest currents, and chains whose top
// sits below their bottom.  Topologies costing more than a 4-deep stack per
// solve are skipped.
func TestSolveMatchesTwoPassOnRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	corners4 := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	maxEvals := evals(Series{DevRef{}, DevRef{}, DevRef{}, DevRef{}})
	for trial := 0; trial < 400; trial++ {
		p := tech.Default()
		if trial%4 >= 2 {
			p = tech.Nitrided()
		}
		kind := tech.NMOS
		if trial%2 == 1 {
			kind = tech.PMOS
		}
		n := randomNetwork(rng, kind, 6)
		for evals(n.Root) > maxEvals {
			n = randomNetwork(rng, kind, 6)
		}
		corners := make([]tech.Corner, len(n.Devices))
		for i := range corners {
			corners[i] = corners4[rng.Intn(len(corners4))]
		}
		gates := make([]float64, n.NumGates)
		for i := range gates {
			if rng.Intn(2) == 0 {
				gates[i] = p.Vdd
			}
		}
		check := func(vtop, vbot float64) {
			sol, err := n.Solve(p, corners, gates, vtop, vbot)
			if err != nil {
				t.Fatal(err)
			}
			if diff := SameSolution(sol, twoPassSolve(n, p, corners, gates, vtop, vbot)); diff != "" {
				t.Fatalf("trial %d vtop %v vbot %v gates %v: %s", trial, vtop, vbot, gates, diff)
			}
		}
		for _, vtop := range []float64{p.Vdd, p.Vdd / 2, 0} {
			check(vtop, 0)
		}
		for i := range n.Devices {
			n.Devices[i].W = 0.5 + 3.5*rng.Float64()
		}
		for i := range gates {
			gates[i] = p.Vdd * rng.Float64()
		}
		for k := 0; k < 4; k++ {
			check(p.Vdd*rng.Float64(), p.Vdd*rng.Float64())
		}
	}
}

// A chain at the head of another chain gets its current from its own
// bisection, whose grid moves with its bottom voltage, so that current is
// not monotone at the scale of the last steps and exceeds must not bracket
// it.  With a PMOS ON-over-OFF chain at the head of the rest, bracketing it
// settles about one solve in 25 the wrong way.
func TestSolveMatchesTwoPassWithChainHead(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewSource(1))
	corners4 := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	n := &Network{
		Devices:  make([]device.Device, 4),
		Root:     Series{DevRef{0, 0}, Series{DevRef{1, 1}, DevRef{2, 2}}, DevRef{3, 3}},
		NumGates: 4,
	}
	for trial := 0; trial < 30; trial++ {
		corners := make([]tech.Corner, len(n.Devices))
		for i := range n.Devices {
			n.Devices[i] = device.Device{Kind: tech.PMOS, W: 0.5 + 3.5*rng.Float64()}
		}
		for i := range corners {
			corners[i] = corners4[rng.Intn(len(corners4))]
		}
		gates := []float64{p.Vdd * rng.Float64(), 0, p.Vdd, p.Vdd * rng.Float64()}
		sol, err := n.Solve(p, corners, gates, p.Vdd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameSolution(sol, twoPassSolve(n, p, corners, gates, p.Vdd, 0)); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}
