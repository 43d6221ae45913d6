package sta

// Required-time / slack analysis and critical-path extraction: the backward
// companion of the forward arrival propagation, used for timing reports and
// for understanding where the optimizer's delay budget went.

import (
	"fmt"
	"math"
	"strings"

	"svto/internal/library"
)

// SlackReport holds a full slack analysis of a timing state against a
// required time at every primary output.
type SlackReport struct {
	// RequiredRise and RequiredFall are the per-transition required
	// arrival times (ps); nets driving nothing keep +Inf.
	RequiredRise, RequiredFall []float64
	// Slack[i] is the worst per-transition slack of net i.
	Slack []float64
	// WorstSlack is the minimum slack over all nets.
	WorstSlack float64
	// Critical is the most timing-critical PI->PO path as net ids.
	Critical []int
}

// Slacks computes transition-aware required times backward from the given
// required time at every primary output (use state.Delay() for zero worst
// slack, or the optimizer's budget).  Because the library cells are
// inverting, an output-rise requirement constrains the input's falling
// arrival and vice versa — mirroring the forward propagation exactly, so a
// required time equal to the circuit delay yields zero slack along the
// critical path.
func (s *State) Slacks(required float64) *SlackReport {
	cc := s.t.CC
	n := cc.NumNets()
	rep := &SlackReport{
		RequiredRise: make([]float64, n),
		RequiredFall: make([]float64, n),
		Slack:        make([]float64, n),
	}
	for i := 0; i < n; i++ {
		rep.RequiredRise[i] = math.Inf(1)
		rep.RequiredFall[i] = math.Inf(1)
	}
	for _, po := range cc.PO {
		rep.RequiredRise[po] = required
		rep.RequiredFall[po] = required
	}
	for gi := len(cc.Gates) - 1; gi >= 0; gi-- {
		g := &cc.Gates[gi]
		outR, outF := rep.RequiredRise[g.Out], rep.RequiredFall[g.Out]
		if math.IsInf(outR, 1) && math.IsInf(outF, 1) {
			continue
		}
		ch := s.choices[gi]
		load := s.net[g.Out].load
		for pin, in := range g.In {
			arcs := ch.Arcs[pin]
			// Output rise launches from input fall; output fall from
			// input rise (inverting cells).
			if !math.IsInf(outR, 1) {
				req := outR - arcs.Rise.Delay.Lookup(s.net[in].slewF, load)
				if req < rep.RequiredFall[in] {
					rep.RequiredFall[in] = req
				}
			}
			if !math.IsInf(outF, 1) {
				req := outF - arcs.Fall.Delay.Lookup(s.net[in].slewR, load)
				if req < rep.RequiredRise[in] {
					rep.RequiredRise[in] = req
				}
			}
		}
	}
	rep.WorstSlack = math.Inf(1)
	for i := 0; i < n; i++ {
		sl := math.Inf(1)
		if !math.IsInf(rep.RequiredRise[i], 1) {
			sl = math.Min(sl, rep.RequiredRise[i]-s.net[i].arrR)
		}
		if !math.IsInf(rep.RequiredFall[i], 1) {
			sl = math.Min(sl, rep.RequiredFall[i]-s.net[i].arrF)
		}
		rep.Slack[i] = sl
		if sl < rep.WorstSlack {
			rep.WorstSlack = sl
		}
	}
	rep.Critical = s.criticalPath()
	return rep
}

// criticalPath walks backward from the latest-arriving primary output,
// always following the fan-in pin that produced the worst arrival.
func (s *State) criticalPath() []int {
	cc := s.t.CC
	worstPO, worst := -1, -1.0
	for _, po := range cc.PO {
		if a := s.Arrival(po); a > worst {
			worst, worstPO = a, po
		}
	}
	if worstPO < 0 {
		return nil
	}
	var path []int
	net := worstPO
	for {
		path = append(path, net)
		gi := cc.GateOfNet[net]
		if gi < 0 {
			break
		}
		g := &cc.Gates[gi]
		ch := s.choices[gi]
		load := s.net[g.Out].load
		bestNet, bestArr := -1, -1.0
		for pin, in := range g.In {
			arcs := ch.Arcs[pin]
			r := s.net[in].arrF + arcs.Rise.Delay.Lookup(s.net[in].slewF, load)
			f := s.net[in].arrR + arcs.Fall.Delay.Lookup(s.net[in].slewR, load)
			if a := math.Max(r, f); a > bestArr {
				bestArr, bestNet = a, in
			}
		}
		if bestNet < 0 {
			break
		}
		net = bestNet
	}
	// Reverse into PI->PO order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// FormatCritical renders the critical path with per-stage arrivals and the
// chosen cell versions.
func (s *State) FormatCritical(rep *SlackReport) string {
	cc := s.t.CC
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%d stages, arrival %.0f ps, worst slack %.1f ps):\n",
		len(rep.Critical), s.Delay(), rep.WorstSlack)
	for _, net := range rep.Critical {
		gi := cc.GateOfNet[net]
		if gi < 0 {
			fmt.Fprintf(&b, "  %-16s (input)            arr %7.1f\n", cc.NetName[net], s.Arrival(net))
			continue
		}
		ch := s.choices[gi]
		kind := ""
		if ch.Version != nil {
			kind = ch.Version.Name
			if ch.Kind != library.KindMinDelay {
				kind += " (" + ch.Kind.String() + ")"
			}
		}
		fmt.Fprintf(&b, "  %-16s %-18s arr %7.1f  slack %7.1f\n",
			cc.NetName[net], kind, s.Arrival(net), rep.Slack[net])
	}
	return b.String()
}
