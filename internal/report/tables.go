package report

import (
	"fmt"
	"strings"
	"time"

	"svto/internal/cell"
	"svto/internal/core"
	"svto/internal/library"
)

// --- Table 1: NAND2 trade-off versions ---

// Table1Row is one (state, version) trade-off point.
type Table1Row struct {
	State     string
	Kind      library.OptionKind
	LeakNA    float64
	RiseDelay [2]float64 // normalized, per pin
	FallDelay [2]float64
}

// Table1 characterizes the NAND2 cell's per-state trade-offs (paper
// Table 1).
func (r *Runner) Table1() ([]Table1Row, error) {
	lib, err := library.Cached(r.Tech, library.DefaultOptions())
	if err != nil {
		return nil, err
	}
	c := lib.Cell("NAND2")
	var rows []Table1Row
	for _, s := range []uint{3, 0, 2} { // paper order: 11, 00, 10
		// Present choices from worst leakage down, like the paper.
		for i := len(c.Choices[s]) - 1; i >= 0; i-- {
			ch := &c.Choices[s][i]
			rows = append(rows, Table1Row{
				State:  fmt.Sprintf("%02b", s),
				Kind:   ch.Kind,
				LeakNA: ch.Leak,
				RiseDelay: [2]float64{
					round2(ch.RiseFactor(0)), round2(ch.RiseFactor(1)),
				},
				FallDelay: [2]float64{
					round2(ch.FallFactor(0)), round2(ch.FallFactor(1)),
				},
			})
		}
	}
	return rows, nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

// FormatTable1 renders the rows like the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1. Trade-offs for Vt-Tox versions of NAND2 (leakage nA, delays normalized)\n")
	fmt.Fprintf(&b, "%-6s %-10s %10s %8s %8s %8s %8s\n", "State", "Version", "Leak[nA]", "riseA", "riseB", "fallA", "fallB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-10s %10.1f %8.2f %8.2f %8.2f %8.2f\n",
			r.State, r.Kind, r.LeakNA, r.RiseDelay[0], r.RiseDelay[1], r.FallDelay[0], r.FallDelay[1])
	}
	return b.String()
}

// --- Table 2: library sizes ---

// Table2Row reports the version count of one cell under both policies.
type Table2Row struct {
	Cell                string
	FourOpt, TwoOpt     int
	PaperFour, PaperTwo int // -1 when the paper does not report the cell
}

// Table2 computes the number of needed library cells (paper Table 2).
func (r *Runner) Table2() ([]Table2Row, error) {
	lib4, err := library.Cached(r.Tech, library.DefaultOptions())
	if err != nil {
		return nil, err
	}
	lib2, err := library.Cached(r.Tech, library.TwoOption())
	if err != nil {
		return nil, err
	}
	paper := map[string][2]int{
		"INV": {5, 3}, "NAND2": {5, 3}, "NAND3": {5, 3}, "NOR2": {8, 4}, "NOR3": {9, 5},
	}
	var rows []Table2Row
	for _, name := range lib4.Names {
		row := Table2Row{
			Cell:      name,
			FourOpt:   len(lib4.Cell(name).Versions),
			TwoOpt:    len(lib2.Cell(name).Versions),
			PaperFour: -1,
			PaperTwo:  -1,
		}
		if p, ok := paper[name]; ok {
			row.PaperFour, row.PaperTwo = p[0], p[1]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders the library-size table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Number of needed library cell versions\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %12s %12s\n", "Cell", "4-option", "2-option", "paper-4opt", "paper-2opt")
	for _, r := range rows {
		p4, p2 := "-", "-"
		if r.PaperFour >= 0 {
			p4, p2 = fmt.Sprint(r.PaperFour), fmt.Sprint(r.PaperTwo)
		}
		fmt.Fprintf(&b, "%-8s %12d %12d %12s %12s\n", r.Cell, r.FourOpt, r.TwoOpt, p4, p2)
	}
	return b.String()
}

// --- Figure 1: inverter leakage components ---

// Fig1Row is the leakage decomposition of the inverter in one input state.
type Fig1Row struct {
	Input           string
	IsubNA, IgateNA float64
	TotalNA         float64
}

// Figure1 decomposes inverter standby leakage by input state (paper
// Figure 1's phenomenon: input-high maximizes NMOS gate tunneling while the
// OFF PMOS leaks subthreshold current; input-low leaves only reverse
// overlap tunneling plus NMOS subthreshold leakage).
func (r *Runner) Figure1() ([]Fig1Row, error) {
	inv := cell.Inverter()
	fast := inv.FastAssignment()
	var rows []Fig1Row
	for s := uint(0); s < 2; s++ {
		lk, err := inv.CharacterizeLeakage(r.Tech, s, fast)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{
			Input:   fmt.Sprint(s),
			IsubNA:  lk.IsubUp + lk.IsubDown,
			IgateNA: lk.Igate,
			TotalNA: lk.Total(),
		})
	}
	return rows, nil
}

// FormatFigure1 renders the decomposition.
func FormatFigure1(rows []Fig1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1. Inverter standby leakage components (fast version)\n")
	fmt.Fprintf(&b, "%-6s %10s %10s %10s\n", "Input", "Isub[nA]", "Igate[nA]", "Total[nA]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %10.2f %10.2f %10.2f\n", r.Input, r.IsubNA, r.IgateNA, r.TotalNA)
	}
	return b.String()
}

// --- Table 3: heuristic comparison ---

// Table3Cell holds one circuit x penalty measurement.
type Table3Cell struct {
	Penalty           float64
	Heu1LeakUA, Heu1X float64
	Heu1Time          time.Duration
	Heu2LeakUA, Heu2X float64
	Heu2Time          time.Duration
}

// Table3Row is one circuit's line.
type Table3Row struct {
	Name  string
	AvgUA float64
	Cells []Table3Cell
}

// Table3 compares heuristic 1 and heuristic 2 across delay penalties
// (paper Table 3).
func (r *Runner) Table3(names []string, penalties []float64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range names {
		p, err := r.Problem(name, library.DefaultOptions(), core.ObjTotal)
		if err != nil {
			return nil, err
		}
		avg, err := p.AverageRandomLeak(seed, r.Vectors)
		if err != nil {
			return nil, err
		}
		row := Table3Row{Name: name, AvgUA: microamps(avg)}
		for _, pen := range penalties {
			h1, err := r.Solve(p, core.AlgHeuristic1, pen, 0)
			if err != nil {
				return nil, err
			}
			h2, err := r.Solve(p, core.AlgHeuristic2, pen, r.Heu2Limit)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Table3Cell{
				Penalty:    pen,
				Heu1LeakUA: microamps(h1.Leak),
				Heu1X:      avg / h1.Leak,
				Heu1Time:   h1.Stats.Runtime,
				Heu2LeakUA: microamps(h2.Leak),
				Heu2X:      avg / h2.Leak,
				Heu2Time:   h2.Stats.Runtime,
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable3 renders the heuristic-comparison table.
func FormatTable3(rows []Table3Row, penalties []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3. Heuristic comparison, 4-option library (leakage µA, X vs %s-vector random average)\n", "10K")
	fmt.Fprintf(&b, "%-8s %9s", "Circuit", "Avg[µA]")
	for _, pen := range penalties {
		fmt.Fprintf(&b, " |%3.0f%%: %8s %5s %7s %8s %5s", pen*100, "Heu1[µA]", "X", "t[ms]", "Heu2[µA]", "X")
	}
	fmt.Fprintln(&b)
	sums := make([][2]float64, len(penalties))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9.1f", r.Name, r.AvgUA)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, " |      %8.1f %5s %7d %8.1f %5s",
				c.Heu1LeakUA, fmtX(c.Heu1X), c.Heu1Time.Milliseconds(), c.Heu2LeakUA, fmtX(c.Heu2X))
			sums[i][0] += c.Heu1X
			sums[i][1] += c.Heu2X
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s %9s", "AVG", "")
		for i := range penalties {
			fmt.Fprintf(&b, " |      %8s %5s %7s %8s %5s", "",
				fmtX(sums[i][0]/float64(len(rows))), "", "", fmtX(sums[i][1]/float64(len(rows))))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// --- Table 4: comparison with traditional techniques ---

// Table4Cell holds one circuit x penalty comparison.
type Table4Cell struct {
	Penalty                 float64
	VtStateLeakUA, VtStateX float64
	Heu1LeakUA, Heu1X       float64
}

// Table4Row is one circuit's line.
type Table4Row struct {
	Name          string
	Inputs, Gates int
	AvgUA         float64
	StateOnlyUA   float64
	StateOnlyX    float64
	Cells         []Table4Cell
}

// Table4 compares the proposed method against state assignment alone and
// the prior state+Vt approach [12] (paper Table 4).
func (r *Runner) Table4(names []string, penalties []float64) ([]Table4Row, error) {
	vtOpt := library.DefaultOptions()
	vtOpt.VtOnly = true
	var rows []Table4Row
	for _, name := range names {
		p, err := r.Problem(name, library.DefaultOptions(), core.ObjTotal)
		if err != nil {
			return nil, err
		}
		pvt, err := r.Problem(name, vtOpt, core.ObjIsubOnly)
		if err != nil {
			return nil, err
		}
		circ, err := r.Circuit(name)
		if err != nil {
			return nil, err
		}
		avg, err := p.AverageRandomLeak(seed, r.Vectors)
		if err != nil {
			return nil, err
		}
		so, err := r.Solve(p, core.AlgStateOnly, 0, 0)
		if err != nil {
			return nil, err
		}
		row := Table4Row{
			Name:        name,
			Inputs:      len(circ.Inputs),
			Gates:       len(circ.Gates),
			AvgUA:       microamps(avg),
			StateOnlyUA: microamps(so.Leak),
			StateOnlyX:  avg / so.Leak,
		}
		for _, pen := range penalties {
			vt, err := r.Solve(pvt, core.AlgHeuristic1, pen, 0)
			if err != nil {
				return nil, err
			}
			h1, err := r.Solve(p, core.AlgHeuristic1, pen, 0)
			if err != nil {
				return nil, err
			}
			row.Cells = append(row.Cells, Table4Cell{
				Penalty:       pen,
				VtStateLeakUA: microamps(vt.Leak),
				VtStateX:      avg / vt.Leak,
				Heu1LeakUA:    microamps(h1.Leak),
				Heu1X:         avg / h1.Leak,
			})
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders the traditional-technique comparison.
func FormatTable4(rows []Table4Row, penalties []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Comparison with state-only and Vt+state [12] (leakage µA)\n")
	fmt.Fprintf(&b, "%-8s %4s %6s %8s %9s %5s", "Circuit", "In", "Gates", "Avg[µA]", "State[µA]", "X")
	for _, pen := range penalties {
		fmt.Fprintf(&b, " |%3.0f%%: %8s %5s %8s %5s", pen*100, "Vt&St", "X", "Heu1", "X")
	}
	fmt.Fprintln(&b)
	type sums struct{ so, vt, h1 float64 }
	agg := make([]sums, len(penalties))
	soSum := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %4d %6d %8.1f %9.1f %5.2f", r.Name, r.Inputs, r.Gates, r.AvgUA, r.StateOnlyUA, r.StateOnlyX)
		soSum += r.StateOnlyX
		for i, c := range r.Cells {
			fmt.Fprintf(&b, " |      %8.1f %5s %8.1f %5s", c.VtStateLeakUA, fmtX(c.VtStateX), c.Heu1LeakUA, fmtX(c.Heu1X))
			agg[i].vt += c.VtStateX
			agg[i].h1 += c.Heu1X
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		n := float64(len(rows))
		fmt.Fprintf(&b, "%-8s %4s %6s %8s %9s %5.2f", "AVG", "", "", "", "", soSum/n)
		for i := range penalties {
			fmt.Fprintf(&b, " |      %8s %5s %8s %5s", "", fmtX(agg[i].vt/n), "", fmtX(agg[i].h1/n))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// --- Table 5: library options ---

// Table5Row compares the four library policies on one circuit at one
// penalty (paper Table 5, 5% penalty).
type Table5Row struct {
	Name  string
	AvgUA float64
	// LeakUA and X are indexed by the policy order of Table5Policies.
	LeakUA, X [4]float64
}

// Table5PolicyNames names the four compared policies in order.
var Table5PolicyNames = [4]string{"4-option", "2-option", "4-opt uniform", "2-opt uniform"}

// table5Policies returns the four library policies.
func table5Policies() [4]library.Options {
	p4 := library.DefaultOptions()
	p2 := library.TwoOption()
	u4 := library.DefaultOptions()
	u4.UniformStack = true
	u2 := library.TwoOption()
	u2.UniformStack = true
	return [4]library.Options{p4, p2, u4, u2}
}

// Table5 compares cell-library options (paper Table 5).
func (r *Runner) Table5(names []string, penalty float64) ([]Table5Row, error) {
	policies := table5Policies()
	var rows []Table5Row
	for _, name := range names {
		row := Table5Row{Name: name}
		for pi, opt := range policies {
			p, err := r.Problem(name, opt, core.ObjTotal)
			if err != nil {
				return nil, err
			}
			if pi == 0 {
				avg, err := p.AverageRandomLeak(seed, r.Vectors)
				if err != nil {
					return nil, err
				}
				row.AvgUA = microamps(avg)
			}
			sol, err := r.Solve(p, core.AlgHeuristic1, penalty, 0)
			if err != nil {
				return nil, err
			}
			row.LeakUA[pi] = microamps(sol.Leak)
			row.X[pi] = row.AvgUA / row.LeakUA[pi]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable5 renders the library-option comparison.
func FormatTable5(rows []Table5Row, penalty float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5. Leakage comparison between cell library options (%.0f%% delay penalty, µA)\n", penalty*100)
	fmt.Fprintf(&b, "%-8s %9s", "Circuit", "Avg[µA]")
	for _, n := range Table5PolicyNames {
		fmt.Fprintf(&b, " %13s %5s", n, "X")
	}
	fmt.Fprintln(&b)
	var xsum [4]float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9.1f", r.Name, r.AvgUA)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, " %13.1f %5.2f", r.LeakUA[i], r.X[i])
			xsum[i] += r.X[i]
		}
		fmt.Fprintln(&b)
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "%-8s %9s", "AVG", "")
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&b, " %13s %5.2f", "", xsum[i]/float64(len(rows)))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// --- Figure 5: leakage vs. delay penalty ---

// Fig5Point is one sweep sample.
type Fig5Point struct {
	Penalty     float64
	Heu1UA      float64
	StateOnlyUA float64 // constant across penalties
	AvgUA       float64 // constant across penalties
}

// Figure5 sweeps the delay penalty for one circuit (the paper uses c7552)
// and reports the proposed method against the state-only and average
// baselines.
func (r *Runner) Figure5(name string, penalties []float64) ([]Fig5Point, error) {
	p, err := r.Problem(name, library.DefaultOptions(), core.ObjTotal)
	if err != nil {
		return nil, err
	}
	avg, err := p.AverageRandomLeak(seed, r.Vectors)
	if err != nil {
		return nil, err
	}
	so, err := r.Solve(p, core.AlgStateOnly, 0, 0)
	if err != nil {
		return nil, err
	}
	var pts []Fig5Point
	for _, pen := range penalties {
		sol, err := r.Solve(p, core.AlgHeuristic1, pen, 0)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig5Point{
			Penalty:     pen,
			Heu1UA:      microamps(sol.Leak),
			StateOnlyUA: microamps(so.Leak),
			AvgUA:       microamps(avg),
		})
	}
	return pts, nil
}

// FormatFigure5 renders the sweep as a data table (the paper's plot).
func FormatFigure5(name string, pts []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5. Leakage vs delay penalty for %s (µA)\n", name)
	fmt.Fprintf(&b, "%9s %12s %12s %12s\n", "penalty%", "proposed", "state-only", "average")
	for _, pt := range pts {
		fmt.Fprintf(&b, "%9.0f %12.1f %12.1f %12.1f\n", pt.Penalty*100, pt.Heu1UA, pt.StateOnlyUA, pt.AvgUA)
	}
	return b.String()
}
