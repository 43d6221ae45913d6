// Package power produces standby-leakage reports for an optimized solution:
// the Isub/Igate decomposition, per-cell-type totals, the distribution over
// trade-off kinds, and the top leaking gate instances — the analysis a
// designer runs after leakopt to see where the remaining standby current
// goes.
package power

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/sim"
)

// GateEntry is one gate instance's contribution.
type GateEntry struct {
	Net     string // output net name
	Cell    string // cell archetype (NAND2, ...)
	Version string // chosen physical version
	Kind    library.OptionKind
	State   uint // instance input state
	// Leak and Isub in nA; Igate = Leak - Isub.
	Leak, Isub float64
	Reordered  bool // pin permutation applied
}

// Igate returns the gate-tunneling part of the entry.
func (e *GateEntry) Igate() float64 { return e.Leak - e.Isub }

// CellSummary aggregates one cell archetype.
type CellSummary struct {
	Count int
	Leak  float64 // nA
}

// Report is a full leakage breakdown of a solution.
type Report struct {
	Circuit    string
	TotalLeak  float64 // nA
	TotalIsub  float64
	TotalIgate float64
	Delay      float64 // ps
	// ByCell aggregates per archetype; ByKind per trade-off kind.
	ByCell map[string]CellSummary
	ByKind map[library.OptionKind]CellSummary
	// Gates is sorted by descending leakage.
	Gates []GateEntry
	// Reordered counts gates using pin permutations.
	Reordered int
}

// Analyze builds the report for a solution of the given problem.
func Analyze(p *core.Problem, sol *core.Solution) (*Report, error) {
	vals := make([]uint64, p.CC.NumNets())
	if err := sim.EvalInto(p.CC, sol.State, vals); err != nil {
		return nil, err
	}
	r := &Report{
		Circuit: p.CC.Circuit.Name,
		Delay:   sol.Delay,
		ByCell:  map[string]CellSummary{},
		ByKind:  map[library.OptionKind]CellSummary{},
	}
	for gi := range p.CC.Gates {
		g := &p.CC.Gates[gi]
		ch := sol.Choices[gi]
		cell := p.Timer.Cells[gi]
		e := GateEntry{
			Net:       p.CC.NetName[g.Out],
			Cell:      cell.Template.Name,
			Version:   ch.Version.Name,
			Kind:      ch.Kind,
			State:     sim.GateState(g, vals, 0),
			Leak:      ch.Leak,
			Isub:      ch.Isub,
			Reordered: ch.Perm != nil,
		}
		r.TotalLeak += e.Leak
		r.TotalIsub += e.Isub
		r.TotalIgate += e.Igate()
		cs := r.ByCell[e.Cell]
		cs.Count++
		cs.Leak += e.Leak
		r.ByCell[e.Cell] = cs
		ks := r.ByKind[e.Kind]
		ks.Count++
		ks.Leak += e.Leak
		r.ByKind[e.Kind] = ks
		if e.Reordered {
			r.Reordered++
		}
		r.Gates = append(r.Gates, e)
	}
	sort.SliceStable(r.Gates, func(a, b int) bool { return r.Gates[a].Leak > r.Gates[b].Leak })
	return r, nil
}

// Format renders a human-readable report listing the topN gates.
func (r *Report) Format(topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "standby leakage report: %s\n", r.Circuit)
	fmt.Fprintf(&b, "total %.2f µA  (Isub %.2f µA, Igate %.2f µA)  delay %.0f ps\n",
		r.TotalLeak/1000, r.TotalIsub/1000, r.TotalIgate/1000, r.Delay)
	fmt.Fprintf(&b, "%d/%d gates use pin reordering\n\n", r.Reordered, len(r.Gates))

	fmt.Fprintf(&b, "by trade-off kind:\n")
	for _, k := range []library.OptionKind{library.KindMinLeak, library.KindFastFall, library.KindFastRise, library.KindMinDelay} {
		if s, ok := r.ByKind[k]; ok {
			fmt.Fprintf(&b, "  %-10s %6d gates %10.2f µA\n", k, s.Count, s.Leak/1000)
		}
	}
	fmt.Fprintf(&b, "\nby cell type:\n")
	names := make([]string, 0, len(r.ByCell))
	for n := range r.ByCell {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.ByCell[n]
		fmt.Fprintf(&b, "  %-8s %6d gates %10.2f µA\n", n, s.Count, s.Leak/1000)
	}

	if topN > len(r.Gates) {
		topN = len(r.Gates)
	}
	fmt.Fprintf(&b, "\ntop %d leaking gates:\n", topN)
	fmt.Fprintf(&b, "  %-16s %-8s %-12s %-10s %6s %10s %10s\n",
		"net", "cell", "version", "kind", "state", "leak[nA]", "igate[nA]")
	for _, e := range r.Gates[:topN] {
		fmt.Fprintf(&b, "  %-16s %-8s %-12s %-10s %6b %10.1f %10.1f\n",
			e.Net, e.Cell, e.Version, e.Kind, e.State, e.Leak, e.Igate())
	}
	return b.String()
}

// WriteCSV emits every gate entry as CSV for external analysis.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"net", "cell", "version", "kind", "state", "leak_nA", "isub_nA", "igate_nA", "reordered"}); err != nil {
		return err
	}
	for _, e := range r.Gates {
		rec := []string{
			e.Net, e.Cell, e.Version, e.Kind.String(),
			strconv.FormatUint(uint64(e.State), 2),
			strconv.FormatFloat(e.Leak, 'f', 3, 64),
			strconv.FormatFloat(e.Isub, 'f', 3, 64),
			strconv.FormatFloat(e.Igate(), 'f', 3, 64),
			strconv.FormatBool(e.Reordered),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
