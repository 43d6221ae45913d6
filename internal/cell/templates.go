package cell

import (
	"fmt"
	"strconv"

	"svto/internal/device"
	"svto/internal/spnet"
	"svto/internal/tech"
)

// truthOf builds a truth-table bitmask from a predicate over input states.
func truthOf(numInputs int, f func(state uint) bool) uint32 {
	var t uint32
	for s := uint(0); s < 1<<numInputs; s++ {
		if f(s) {
			t |= 1 << s
		}
	}
	return t
}

func pinNames(n int) []string {
	names := []string{"A", "B", "C", "D", "E"}
	return names[:n]
}

func refs(n int) []spnet.Element {
	es := make([]spnet.Element, n)
	for i := range es {
		es[i] = spnet.DevRef{Index: i, Gate: i}
	}
	return es
}

func devs(kind tech.DeviceKind, w float64, n int) []device.Device {
	ds := make([]device.Device, n)
	for i := range ds {
		ds[i] = device.Device{Kind: kind, W: w, Corner: tech.FastCorner}
	}
	return ds
}

// Inverter returns the INV template: 1um NMOS, 2um PMOS.
func Inverter() *Template {
	return &Template{
		Name:      "INV",
		NumInputs: 1,
		PinNames:  pinNames(1),
		PullUp: &spnet.Network{
			Devices:  devs(tech.PMOS, 2, 1),
			Root:     spnet.DevRef{},
			NumGates: 1,
		},
		PullDown: &spnet.Network{
			Devices:  devs(tech.NMOS, 1, 1),
			Root:     spnet.DevRef{},
			NumGates: 1,
		},
		Truth: truthOf(1, func(s uint) bool { return s&1 == 0 }),
	}
}

// NAND returns the n-input NAND template (n in [2,4]): series NMOS stack of
// width n um each (pin 0 on top, next to the output), parallel 2um PMOS.
func NAND(n int) *Template {
	mustFanin(n)
	return &Template{
		Name:      "NAND" + strconv.Itoa(n),
		NumInputs: n,
		PinNames:  pinNames(n),
		PullUp: &spnet.Network{
			Devices:  devs(tech.PMOS, 2, n),
			Root:     spnet.Parallel(refs(n)),
			NumGates: n,
		},
		PullDown: &spnet.Network{
			Devices:  devs(tech.NMOS, float64(n), n),
			Root:     spnet.Series(refs(n)),
			NumGates: n,
		},
		Truth:     truthOf(n, func(s uint) bool { return s != 1<<n-1 }),
		SymGroups: [][]int{allPins(n)},
	}
}

// NOR returns the n-input NOR template (n in [2,4]): parallel 1um NMOS,
// series PMOS stack of width 2n um each (pin 0 on top, next to Vdd).
func NOR(n int) *Template {
	mustFanin(n)
	return &Template{
		Name:      "NOR" + strconv.Itoa(n),
		NumInputs: n,
		PinNames:  pinNames(n),
		PullUp: &spnet.Network{
			Devices:  devs(tech.PMOS, float64(2*n), n),
			Root:     spnet.Series(refs(n)),
			NumGates: n,
		},
		PullDown: &spnet.Network{
			Devices:  devs(tech.NMOS, 1, n),
			Root:     spnet.Parallel(refs(n)),
			NumGates: n,
		},
		Truth:     truthOf(n, func(s uint) bool { return s == 0 }),
		SymGroups: [][]int{allPins(n)},
	}
}

// AOI21 returns the and-or-invert template: out = !(A&B | C).
// Pins: A=0, B=1, C=2.
func AOI21() *Template {
	up := &spnet.Network{
		Devices: []device.Device{
			{Kind: tech.PMOS, W: 4, Corner: tech.FastCorner}, // A
			{Kind: tech.PMOS, W: 4, Corner: tech.FastCorner}, // B
			{Kind: tech.PMOS, W: 4, Corner: tech.FastCorner}, // C
		},
		Root: spnet.Series{
			spnet.Parallel{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.DevRef{Index: 2, Gate: 2},
		},
		NumGates: 3,
	}
	down := &spnet.Network{
		Devices: []device.Device{
			{Kind: tech.NMOS, W: 2, Corner: tech.FastCorner}, // A
			{Kind: tech.NMOS, W: 2, Corner: tech.FastCorner}, // B
			{Kind: tech.NMOS, W: 1, Corner: tech.FastCorner}, // C
		},
		Root: spnet.Parallel{
			spnet.Series{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.DevRef{Index: 2, Gate: 2},
		},
		NumGates: 3,
	}
	return &Template{
		Name:      "AOI21",
		NumInputs: 3,
		PinNames:  pinNames(3),
		PullUp:    up,
		PullDown:  down,
		Truth: truthOf(3, func(s uint) bool {
			a, b, c := s&1 == 1, s>>1&1 == 1, s>>2&1 == 1
			return !(a && b || c)
		}),
		SymGroups: [][]int{{0, 1}},
	}
}

// OAI21 returns the or-and-invert template: out = !((A|B) & C).
// Pins: A=0, B=1, C=2.
func OAI21() *Template {
	up := &spnet.Network{
		Devices: []device.Device{
			{Kind: tech.PMOS, W: 4, Corner: tech.FastCorner}, // A
			{Kind: tech.PMOS, W: 4, Corner: tech.FastCorner}, // B
			{Kind: tech.PMOS, W: 2, Corner: tech.FastCorner}, // C
		},
		Root: spnet.Parallel{
			spnet.Series{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.DevRef{Index: 2, Gate: 2},
		},
		NumGates: 3,
	}
	down := &spnet.Network{
		Devices: []device.Device{
			{Kind: tech.NMOS, W: 1, Corner: tech.FastCorner}, // A
			{Kind: tech.NMOS, W: 1, Corner: tech.FastCorner}, // B
			{Kind: tech.NMOS, W: 2, Corner: tech.FastCorner}, // C
		},
		Root: spnet.Series{
			spnet.Parallel{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.DevRef{Index: 2, Gate: 2},
		},
		NumGates: 3,
	}
	return &Template{
		Name:      "OAI21",
		NumInputs: 3,
		PinNames:  pinNames(3),
		PullUp:    up,
		PullDown:  down,
		Truth: truthOf(3, func(s uint) bool {
			a, b, c := s&1 == 1, s>>1&1 == 1, s>>2&1 == 1
			return !((a || b) && c)
		}),
		SymGroups: [][]int{{0, 1}},
	}
}

// AOI22 returns the and-or-invert template: out = !(A&B | C&D).
// Pins: A=0, B=1, C=2, D=3.
func AOI22() *Template {
	up := &spnet.Network{
		Devices: devs(tech.PMOS, 4, 4),
		Root: spnet.Series{
			spnet.Parallel{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.Parallel{spnet.DevRef{Index: 2, Gate: 2}, spnet.DevRef{Index: 3, Gate: 3}},
		},
		NumGates: 4,
	}
	down := &spnet.Network{
		Devices: devs(tech.NMOS, 2, 4),
		Root: spnet.Parallel{
			spnet.Series{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.Series{spnet.DevRef{Index: 2, Gate: 2}, spnet.DevRef{Index: 3, Gate: 3}},
		},
		NumGates: 4,
	}
	return &Template{
		Name:      "AOI22",
		NumInputs: 4,
		PinNames:  pinNames(4),
		PullUp:    up,
		PullDown:  down,
		Truth: truthOf(4, func(s uint) bool {
			a, b, c, d := s&1 == 1, s>>1&1 == 1, s>>2&1 == 1, s>>3&1 == 1
			return !(a && b || c && d)
		}),
		SymGroups: [][]int{{0, 1}, {2, 3}},
	}
}

// OAI22 returns the or-and-invert template: out = !((A|B) & (C|D)).
// Pins: A=0, B=1, C=2, D=3.
func OAI22() *Template {
	up := &spnet.Network{
		Devices: devs(tech.PMOS, 4, 4),
		Root: spnet.Parallel{
			spnet.Series{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.Series{spnet.DevRef{Index: 2, Gate: 2}, spnet.DevRef{Index: 3, Gate: 3}},
		},
		NumGates: 4,
	}
	down := &spnet.Network{
		Devices: devs(tech.NMOS, 2, 4),
		Root: spnet.Series{
			spnet.Parallel{spnet.DevRef{Index: 0, Gate: 0}, spnet.DevRef{Index: 1, Gate: 1}},
			spnet.Parallel{spnet.DevRef{Index: 2, Gate: 2}, spnet.DevRef{Index: 3, Gate: 3}},
		},
		NumGates: 4,
	}
	return &Template{
		Name:      "OAI22",
		NumInputs: 4,
		PinNames:  pinNames(4),
		PullUp:    up,
		PullDown:  down,
		Truth: truthOf(4, func(s uint) bool {
			a, b, c, d := s&1 == 1, s>>1&1 == 1, s>>2&1 == 1, s>>3&1 == 1
			return !((a || b) && (c || d))
		}),
		SymGroups: [][]int{{0, 1}, {2, 3}},
	}
}

// StandardTemplates returns the full template set used to build the default
// library, keyed by name.
func StandardTemplates() []*Template {
	return []*Template{
		Inverter(),
		NAND(2), NAND(3), NAND(4),
		NOR(2), NOR(3), NOR(4),
		AOI21(), OAI21(),
		AOI22(), OAI22(),
	}
}

func allPins(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func mustFanin(n int) {
	if n < 2 || n > 4 {
		panic(fmt.Sprintf("fan-in %d out of supported range [2,4]", n))
	}
}
