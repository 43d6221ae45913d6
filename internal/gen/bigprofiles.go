package gen

// 100k-gate-class profiles.  The paper's evaluation tops out at a few
// thousand gates (c7552, alu64); measuring how the search's engines scale
// past that needs a circuit two orders of magnitude larger.  A scaled
// RandomLogic would do for throughput numbers, but its shape is wrong for a
// datapath: real big blocks are wide, shallow and extremely repetitive.
// CacheDatapath builds the classic shape — a W-way set-associative tag
// lookup in front of a word-wide mixing datapath:
//
//   - tag-compare slices: for every (way, set) pair, the input tag is
//     compared against that entry's stored tag.  Stored tags are encoded
//     structurally: bit k of entry (w,s) is an index bit chosen by a fixed
//     per-entry schedule, matched through XOR or XNOR depending on a
//     deterministic per-entry polarity — the polarity pattern IS the
//     stored constant, so no constant nets are needed.
//   - way-select or-trees: each way ORs its per-set hit lines and gates
//     the result with the enable input.
//   - data xor-mix: the data word runs through rotate-and-XOR layers
//     (parity-mix, the arithmetic-free core of hash/ECC datapaths), and
//     each way contributes a different mix depth to the output mux.
//
// Everything is emitted directly in the mapped op set (NAND/NOR/NOT), so
// the builder controls the exact gate count and the netlist needs no
// techmap pass: XOR/XNOR are the 4-gate NAND/NOR constructions, AND/OR are
// inverter-terminated trees.  The interface stays narrow (~93 inputs) on
// purpose — primary-input count drives the state-tree width and the
// per-input cost of the search-order BFS, and a cache lookup genuinely has
// a narrow interface in front of wide internals.

import (
	"fmt"

	"svto/internal/netlist"
)

// CacheDatapath builds a W-way, S-set tag-compare + datapath block in
// mapped gates.  Inputs: t0..t(tagBits-1), x0..x(idxBits-1), d0..d(dataBits-1),
// en.  Outputs: one hit line per way and the way-muxed mixed data word.
func CacheDatapath(name string, ways, sets, tagBits, idxBits, dataBits int) (*netlist.Circuit, error) {
	if ways < 2 || sets < 2 || tagBits < 2 || idxBits < 2 || dataBits < 2 {
		return nil, fmt.Errorf("gen: CacheDatapath needs >=2 of ways/sets/tagBits/idxBits/dataBits")
	}
	c := &netlist.Circuit{Name: name}
	fresh := 0
	emit := func(op netlist.Op, fanin ...string) string {
		n := fmt.Sprintf("g%d", fresh)
		fresh++
		c.Gates = append(c.Gates, netlist.Gate{Name: n, Op: op, Fanin: fanin})
		return n
	}
	nand := func(a, b string) string { return emit(netlist.OpNand, a, b) }
	nor := func(a, b string) string { return emit(netlist.OpNor, a, b) }
	inv := func(a string) string { return emit(netlist.OpNot, a) }
	and2 := func(a, b string) string { return inv(nand(a, b)) }
	or2 := func(a, b string) string { return inv(nor(a, b)) }
	// 4-gate XOR (NAND form) and XNOR (NOR form).
	xor2 := func(a, b string) string {
		t := nand(a, b)
		return nand(nand(a, t), nand(b, t))
	}
	xnor2 := func(a, b string) string {
		t := nor(a, b)
		return nor(nor(a, t), nor(b, t))
	}
	// Balanced reduction trees over and2/or2.
	tree := func(nets []string, op func(a, b string) string) string {
		for len(nets) > 1 {
			var next []string
			for i := 0; i+1 < len(nets); i += 2 {
				next = append(next, op(nets[i], nets[i+1]))
			}
			if len(nets)%2 == 1 {
				next = append(next, nets[len(nets)-1])
			}
			nets = next
		}
		return nets[0]
	}

	tag := make([]string, tagBits)
	for i := range tag {
		tag[i] = fmt.Sprintf("t%d", i)
		c.Inputs = append(c.Inputs, tag[i])
	}
	idx := make([]string, idxBits)
	for i := range idx {
		idx[i] = fmt.Sprintf("x%d", i)
		c.Inputs = append(c.Inputs, idx[i])
	}
	data := make([]string, dataBits)
	for i := range data {
		data[i] = fmt.Sprintf("d%d", i)
		c.Inputs = append(c.Inputs, data[i])
	}
	c.Inputs = append(c.Inputs, "en")

	// Tag-compare slices and per-way or-trees.
	wayHit := make([]string, ways)
	for w := 0; w < ways; w++ {
		hits := make([]string, sets)
		for s := 0; s < sets; s++ {
			match := make([]string, tagBits)
			for k := 0; k < tagBits; k++ {
				src := idx[(k*7+s*3+w)%idxBits]
				// The per-entry polarity schedule is the stored tag.
				if (w*131+s*17+k*5)%3 == 0 {
					match[k] = xor2(tag[k], src)
				} else {
					match[k] = xnor2(tag[k], src)
				}
			}
			hits[s] = tree(match, and2)
		}
		wayHit[w] = and2(tree(hits, or2), "en")
	}

	// Rotate-and-XOR data mix; layer l rotates by a growing odd stride.
	const mixLayers = 8
	mix := make([][]string, mixLayers+1)
	mix[0] = data
	for l := 1; l <= mixLayers; l++ {
		rot := 2*l + 1
		mix[l] = make([]string, dataBits)
		for b := 0; b < dataBits; b++ {
			mix[l][b] = xor2(mix[l-1][b], mix[l-1][(b+rot)%dataBits])
		}
	}

	// Outputs carry fixed names; an inverter pair (not a buffer — OpBuf has
	// no library cell, and this netlist must stay fully mapped) moves each
	// result onto its named net.
	namedOut := func(name, src string) {
		c.Gates = append(c.Gates, netlist.Gate{Name: name, Op: netlist.OpNot, Fanin: []string{inv(src)}})
		c.Outputs = append(c.Outputs, name)
	}
	// Way-muxed output word: each way selects a different mix depth.
	for b := 0; b < dataBits; b++ {
		terms := make([]string, ways)
		for w := 0; w < ways; w++ {
			terms[w] = and2(wayHit[w], mix[1+w%mixLayers][b])
		}
		namedOut(fmt.Sprintf("q%d", b), tree(terms, or2))
	}
	for w := 0; w < ways; w++ {
		namedOut(fmt.Sprintf("hit%d", w), wayHit[w])
	}
	if _, err := c.Compile(); err != nil {
		return nil, fmt.Errorf("gen: %s: %w", name, err)
	}
	return c, nil
}
