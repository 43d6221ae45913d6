package spnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"svto/internal/tech"
)

// twoPassSolve is the reference solver Solve must match bit for bit: one
// full bisection pass for the network current, then a second, identical pass
// that records the per-device biases.  Solve folds the current into the
// recording pass.
func twoPassSolve(n *Network, p *tech.Params, corners []tech.Corner, gateV []float64, vtop, vbot float64) *Solution {
	ev := &evalCtx{p: p, net: n, corners: corners, gateV: gateV}
	sol := &Solution{Current: n.Root.current(ev, vtop, vbot)}
	twoPassRecord(n.Root, ev, vtop, vbot, sol)
	return sol
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
		vmid := e.balance(ev, vtop, vbot)
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

// evals returns the number of device evaluations one current() call on e
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
// every way a Series can hand its first element's current back is covered.
// Topologies costing more than a 4-deep stack per solve are skipped.
func TestSolveMatchesTwoPassOnRandomNetworks(t *testing.T) {
	p := tech.Default()
	rng := rand.New(rand.NewSource(5))
	corners4 := []tech.Corner{tech.FastCorner, tech.LowIsubCorner, tech.LowIgateCorner, tech.SlowCorner}
	maxEvals := evals(Series{DevRef{}, DevRef{}, DevRef{}, DevRef{}})
	for trial := 0; trial < 60; trial++ {
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
		for _, vtop := range []float64{p.Vdd, p.Vdd / 2, 0} {
			sol, err := n.Solve(p, corners, gates, vtop, 0)
			if err != nil {
				t.Fatal(err)
			}
			if diff := SameSolution(sol, twoPassSolve(n, p, corners, gates, vtop, 0)); diff != "" {
				t.Fatalf("trial %d vtop %g: %s", trial, vtop, diff)
			}
		}
	}
}
