// Package spnet models the pull-up and pull-down transistor networks of a
// static CMOS gate as series-parallel compositions of devices and solves
// their DC operating point under a known input state.
//
// This is the substitute for SPICE in the reproduction.  The solver finds
// the internal stack node voltages by balancing channel currents: the
// current through a series composition is monotone in the internal node
// voltage (a property the device model guarantees), so each internal node is
// found by bisection, nested recursively through the composition tree.  With
// the node voltages known, the per-device gate-tunneling currents are
// evaluated at their true terminal biases — which is exactly what produces
// the stack effects the paper exploits: an OFF stack leaks far less than a
// single OFF device, and an ON device sitting above an OFF device sees only
// ~one Vt of gate bias and tunnels negligibly.
package spnet

import (
	"fmt"

	"svto/internal/device"
	"svto/internal/tech"
)

// bisectIters is the number of bisection steps used per internal node.
// 30 steps resolve node voltages to ~1e-9 V on a 1V interval, far below
// anything the leakage model can distinguish.
const bisectIters = 30

// Element is a node of a series-parallel composition tree.  The three
// implementations are DevRef, Series and Parallel.
type Element interface {
	// current returns the channel current (nA) flowing from the element's
	// top terminal to its bottom terminal.
	current(ev *evalCtx, vtop, vbot float64) float64
	// record solves internal nodes, records per-device biases and returns
	// the same current as current(ev, vtop, vbot), bit for bit.
	record(ev *evalCtx, vtop, vbot float64, sol *Solution) float64
	// conducts reports whether a fully-ON path exists through the element.
	conducts(on []bool) bool
	// visit calls f for every device reference beneath the element.
	visit(f func(DevRef))
	// stacks appends stack groups (see Network.StackGroups).
	stacks(inSeries bool, cur *[]int, out *[][]int)
	// validate checks structural invariants.
	validate(n *Network) error
}

// DevRef places one of the network's devices in the composition tree.
type DevRef struct {
	// Index selects the device in Network.Devices.
	Index int
	// Gate selects which gate-voltage slot drives the device.  For a cell
	// this is the input pin index.
	Gate int
}

// Series composes elements top-to-bottom; current must pass through all of
// them and internal nodes float between consecutive elements.
type Series []Element

// Parallel composes elements side-by-side between the same two nodes.
type Parallel []Element

// Network is a pull network: a set of prototype devices and a
// series-parallel composition between a top and a bottom terminal.  By
// convention pull-down networks have the gate output on top and ground at
// the bottom; pull-up networks have Vdd on top and the output at the bottom.
type Network struct {
	Devices []device.Device
	Root    Element
	// NumGates is the number of gate-voltage slots (cell input pins).
	NumGates int
}

// Validate checks that the composition tree is structurally sound: non-empty
// compositions, device and gate indices in range, and every device placed at
// least once.
func (n *Network) Validate() error {
	if n.Root == nil {
		return fmt.Errorf("spnet: nil root")
	}
	if len(n.Devices) == 0 {
		return fmt.Errorf("spnet: no devices")
	}
	for i, d := range n.Devices {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("spnet device %d: %w", i, err)
		}
	}
	used := make([]bool, len(n.Devices))
	if err := n.Root.validate(n); err != nil {
		return err
	}
	n.Root.visit(func(r DevRef) { used[r.Index] = true })
	for i, u := range used {
		if !u {
			return fmt.Errorf("spnet: device %d not placed in tree", i)
		}
	}
	return nil
}

// evalCtx carries the per-solve inputs through the recursive evaluation.
type evalCtx struct {
	p       *tech.Params
	net     *Network
	corners []tech.Corner // per-device corner assignment
	gateV   []float64     // per-gate-slot voltage
}

func (ev *evalCtx) dev(r DevRef) device.Device {
	d := ev.net.Devices[r.Index]
	d.Corner = ev.corners[r.Index]
	return d
}

// Bias is the solved operating point of one device.
type Bias struct {
	Ref     DevRef
	Device  device.Device // with the solved corner applied
	VG      float64       // gate voltage
	VTop    float64       // top-terminal voltage
	VBot    float64       // bottom-terminal voltage
	Channel float64       // channel current top->bottom, nA
}

// Igate returns the gate tunneling current (nA) of the device at its solved
// bias.
func (b *Bias) Igate(p *tech.Params) float64 {
	return b.Device.GateLeak(p, b.VG, b.VTop, b.VBot)
}

// Solution is the DC operating point of a network under one input state and
// corner assignment.
type Solution struct {
	// Current is the channel current (nA) flowing from the top terminal
	// to the bottom terminal: the network's subthreshold (or conduction)
	// current.
	Current float64
	// Biases holds the solved per-device operating points in visit order.
	Biases []Bias
}

// TotalIgate sums the gate tunneling currents of all devices (nA).
func (s *Solution) TotalIgate(p *tech.Params) float64 {
	total := 0.0
	for i := range s.Biases {
		total += s.Biases[i].Igate(p)
	}
	return total
}

// Solve computes the DC operating point of the network between terminal
// voltages vtop and vbot, with per-device corners and per-slot gate voltages.
// One pass both records the biases and yields the network current, so the
// top-level bisection runs once.
func (n *Network) Solve(p *tech.Params, corners []tech.Corner, gateV []float64, vtop, vbot float64) (*Solution, error) {
	if len(corners) != len(n.Devices) {
		return nil, fmt.Errorf("spnet: %d corners for %d devices", len(corners), len(n.Devices))
	}
	if len(gateV) != n.NumGates {
		return nil, fmt.Errorf("spnet: %d gate voltages for %d slots", len(gateV), n.NumGates)
	}
	ev := &evalCtx{p: p, net: n, corners: corners, gateV: gateV}
	sol := &Solution{}
	sol.Current = n.Root.record(ev, vtop, vbot, sol)
	return sol, nil
}

// Conducts reports whether the network has a fully-ON path between its
// terminals when the given pins are logically on.  "On" means the logic
// value that turns the device's kind on: for the caller's convenience this
// is expressed per gate slot, with on[i] true meaning slot i is at the level
// that turns the devices it drives ON (the cell layer converts logic values
// per device kind).
func (n *Network) Conducts(on []bool) bool { return n.Root.conducts(on) }

// StackGroups returns groups of device indices that share a transistor
// stack: all devices beneath the same outermost Series element form one
// group, and devices outside any Series element form singleton groups.  The
// uniform-stack library restriction forces a single Vt (and Tox) per group.
func (n *Network) StackGroups() [][]int {
	var out [][]int
	n.Root.stacks(false, nil, &out)
	return out
}

// ForEachDevice calls f for every device placement in the tree.
func (n *Network) ForEachDevice(f func(DevRef)) { n.Root.visit(f) }

// --- DevRef ---

func (r DevRef) current(ev *evalCtx, vtop, vbot float64) float64 {
	return ev.dev(r).ChannelCurrent(ev.p, ev.gateV[r.Gate], vtop, vbot)
}

func (r DevRef) record(ev *evalCtx, vtop, vbot float64, sol *Solution) float64 {
	d := ev.dev(r)
	i := d.ChannelCurrent(ev.p, ev.gateV[r.Gate], vtop, vbot)
	sol.Biases = append(sol.Biases, Bias{
		Ref:     r,
		Device:  d,
		VG:      ev.gateV[r.Gate],
		VTop:    vtop,
		VBot:    vbot,
		Channel: i,
	})
	return i
}

func (r DevRef) conducts(on []bool) bool { return on[r.Gate] }

func (r DevRef) visit(f func(DevRef)) { f(r) }

func (r DevRef) stacks(inSeries bool, cur *[]int, out *[][]int) {
	if inSeries {
		*cur = append(*cur, r.Index)
	} else {
		*out = append(*out, []int{r.Index})
	}
}

func (r DevRef) validate(n *Network) error {
	if r.Index < 0 || r.Index >= len(n.Devices) {
		return fmt.Errorf("spnet: device index %d out of range", r.Index)
	}
	if r.Gate < 0 || r.Gate >= n.NumGates {
		return fmt.Errorf("spnet: gate slot %d out of range", r.Gate)
	}
	return nil
}

// --- Series ---

func (s Series) current(ev *evalCtx, vtop, vbot float64) float64 {
	if len(s) == 1 {
		return s[0].current(ev, vtop, vbot)
	}
	vmid := s.balance(ev, vtop, vbot)
	return s[0].current(ev, vtop, vmid)
}

// balance finds the voltage of the node between s[0] and the rest of the
// chain by bisection.  The current through s[0] falls as the node rises and
// the current through the rest grows, so the crossing is unique.
func (s Series) balance(ev *evalCtx, vtop, vbot float64) float64 {
	rest := s[1:]
	lo, hi := vbot, vtop
	if lo > hi {
		lo, hi = hi, lo
	}
	for i := 0; i < bisectIters; i++ {
		mid := (lo + hi) / 2
		iTop := s[0].current(ev, vtop, mid)
		iRest := rest.current(ev, mid, vbot)
		if iTop > iRest {
			// Too little current drained below: node must rise.
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func (s Series) record(ev *evalCtx, vtop, vbot float64, sol *Solution) float64 {
	if len(s) == 1 {
		return s[0].record(ev, vtop, vbot, sol)
	}
	vmid := s.balance(ev, vtop, vbot)
	i := s[0].record(ev, vtop, vmid, sol)
	s[1:].record(ev, vmid, vbot, sol)
	return i
}

func (s Series) conducts(on []bool) bool {
	for _, e := range s {
		if !e.conducts(on) {
			return false
		}
	}
	return true
}

func (s Series) visit(f func(DevRef)) {
	for _, e := range s {
		e.visit(f)
	}
}

func (s Series) stacks(inSeries bool, cur *[]int, out *[][]int) {
	if inSeries {
		// Nested series folds into the enclosing stack.
		for _, e := range s {
			e.stacks(true, cur, out)
		}
		return
	}
	var group []int
	for _, e := range s {
		e.stacks(true, &group, out)
	}
	if len(group) > 0 {
		*out = append(*out, group)
	}
}

func (s Series) validate(n *Network) error {
	if len(s) == 0 {
		return fmt.Errorf("spnet: empty series composition")
	}
	for _, e := range s {
		if err := e.validate(n); err != nil {
			return err
		}
	}
	return nil
}

// --- Parallel ---

func (pl Parallel) current(ev *evalCtx, vtop, vbot float64) float64 {
	total := 0.0
	for _, e := range pl {
		total += e.current(ev, vtop, vbot)
	}
	return total
}

func (pl Parallel) record(ev *evalCtx, vtop, vbot float64, sol *Solution) float64 {
	total := 0.0
	for _, e := range pl {
		total += e.record(ev, vtop, vbot, sol)
	}
	return total
}

func (pl Parallel) conducts(on []bool) bool {
	for _, e := range pl {
		if e.conducts(on) {
			return true
		}
	}
	return false
}

func (pl Parallel) visit(f func(DevRef)) {
	for _, e := range pl {
		e.visit(f)
	}
}

func (pl Parallel) stacks(inSeries bool, cur *[]int, out *[][]int) {
	for _, e := range pl {
		// A parallel branch inside a series chain still belongs to the
		// enclosing stack (conservative grouping for design rules).
		e.stacks(inSeries, cur, out)
	}
}

func (pl Parallel) validate(n *Network) error {
	if len(pl) == 0 {
		return fmt.Errorf("spnet: empty parallel composition")
	}
	for _, e := range pl {
		if err := e.validate(n); err != nil {
			return err
		}
	}
	return nil
}
