// Package svto's root benchmark suite regenerates every evaluation artifact
// of the paper (one benchmark per table and figure) and measures the hot
// paths of the implementation.  Custom metrics report result quality
// (uA_leak, X_reduction) alongside timing, so `go test -bench` output both
// regenerates the paper's numbers and tracks performance.
//
// The table/figure benches default to the small circuit subset so the suite
// completes quickly; cmd/repro runs the full 11-circuit evaluation.
package svto

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"svto/internal/cell"
	"svto/internal/core"
	"svto/internal/device"
	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/report"
	"svto/internal/sim"
	"svto/internal/spnet"
	"svto/internal/sta"
	"svto/internal/tech"
	"svto/internal/variation"
)

// solve runs one deterministic (Workers=1) search through the unified
// Problem.Solve entry point.
func solve(p *core.Problem, o core.Options) (*core.Solution, error) {
	o.Workers = 1
	return p.Solve(context.Background(), o)
}

// benchRunner returns a shared Runner sized for benchmarking.
var benchRunner = sync.OnceValue(func() *report.Runner {
	r := report.NewRunner()
	r.Vectors = 1000
	r.Heu2Limit = 200 * time.Millisecond
	return r
})

func mustProblem(b *testing.B, name string, opt library.Options, obj core.Objective) *core.Problem {
	b.Helper()
	p, err := benchRunner().Problem(name, opt, obj)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// --- One benchmark per table and figure ---

// BenchmarkTable1 regenerates the NAND2 trade-off table.
func BenchmarkTable1(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty table 1")
		}
	}
}

// BenchmarkTable2 regenerates the library-size table.
func BenchmarkTable2(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty table 2")
		}
	}
}

// BenchmarkTable3 regenerates the heuristic-comparison table on the small
// circuit subset at the paper's three penalties.
func BenchmarkTable3(b *testing.B) {
	r := benchRunner()
	penalties := []float64{0.05, 0.10, 0.25}
	var rows []report.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table3(report.SmallNames(), penalties)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		x := 0.0
		for _, row := range rows {
			x += row.Cells[0].Heu1X
		}
		b.ReportMetric(x/float64(len(rows)), "X_at5%")
	}
}

// BenchmarkTable4 regenerates the traditional-technique comparison on the
// small subset at 5% penalty.
func BenchmarkTable4(b *testing.B) {
	r := benchRunner()
	var rows []report.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table4(report.SmallNames(), []float64{0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		vt, h1 := 0.0, 0.0
		for _, row := range rows {
			vt += row.Cells[0].VtStateX
			h1 += row.Cells[0].Heu1X
		}
		n := float64(len(rows))
		b.ReportMetric(vt/n, "VtState_X")
		b.ReportMetric(h1/n, "Heu1_X")
	}
}

// BenchmarkTable5 regenerates the library-option comparison on the small
// subset.
func BenchmarkTable5(b *testing.B) {
	r := benchRunner()
	var rows []report.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = r.Table5(report.SmallNames(), 0.05)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		var x4, x2 float64
		for _, row := range rows {
			x4 += row.X[0]
			x2 += row.X[1]
		}
		n := float64(len(rows))
		b.ReportMetric(x4/n, "4opt_X")
		b.ReportMetric(x2/n, "2opt_X")
	}
}

// BenchmarkFigure1 regenerates the inverter leakage decomposition.
func BenchmarkFigure1(b *testing.B) {
	r := benchRunner()
	for i := 0; i < b.N; i++ {
		rows, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("figure 1 should have 2 states")
		}
	}
}

// BenchmarkFigure4Stats exercises the two-tree search instrumentation the
// paper's figure 4 illustrates: a short Heuristic2 run reporting node and
// prune counts.
func BenchmarkFigure4Stats(b *testing.B) {
	p := mustProblem(b, "c432", library.DefaultOptions(), core.ObjTotal)
	var sol *core.Solution
	for i := 0; i < b.N; i++ {
		var err error
		sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic2, Penalty: 0.25, TimeLimit: 100 * time.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	if sol != nil {
		b.ReportMetric(float64(sol.Stats.StateNodes), "state_nodes")
		b.ReportMetric(float64(sol.Stats.Leaves), "leaves")
	}
}

// BenchmarkFigure5 regenerates a reduced delay-penalty sweep.
func BenchmarkFigure5(b *testing.B) {
	r := benchRunner()
	penalties := []float64{0, 0.05, 0.25, 1.0}
	var pts []report.Fig5Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = r.Figure5("c432", penalties)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 4 {
		b.ReportMetric(pts[0].AvgUA/pts[1].Heu1UA, "X_at5%")
		b.ReportMetric(pts[0].AvgUA/pts[3].Heu1UA, "X_at100%")
	}
}

// --- Heuristics across circuit sizes ---

func benchHeu1(b *testing.B, name string) {
	p := mustProblem(b, name, library.DefaultOptions(), core.ObjTotal)
	b.ResetTimer()
	var sol *core.Solution
	for i := 0; i < b.N; i++ {
		var err error
		sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sol.Leak/1000, "uA_leak")
}

func BenchmarkHeuristic1C432(b *testing.B)  { benchHeu1(b, "c432") }
func BenchmarkHeuristic1C880(b *testing.B)  { benchHeu1(b, "c880") }
func BenchmarkHeuristic1C5315(b *testing.B) { benchHeu1(b, "c5315") }
func BenchmarkHeuristic1C7552(b *testing.B) { benchHeu1(b, "c7552") }

// BenchmarkSolveParallel measures the parallel state-tree search on c880:
// the same Heuristic2 work budget (MaxLeaves, machine-independent) executed
// sequentially and with one worker per CPU.  On a multicore box the
// workers/N variant should approach an N-fold wall-clock reduction while
// reporting an equal-or-better uA_leak (the shared incumbent only tightens
// pruning).
func BenchmarkSolveParallel(b *testing.B) {
	const leafBudget = 2000
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{"workers=max", runtime.GOMAXPROCS(0)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := mustProblem(b, "c880", library.DefaultOptions(), core.ObjTotal)
			b.ResetTimer()
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = p.Solve(context.Background(), core.Options{
					Algorithm: core.AlgHeuristic2,
					Penalty:   0.05,
					Workers:   tc.workers,
					MaxLeaves: leafBudget,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Leak/1000, "uA_leak")
			b.ReportMetric(float64(sol.Stats.Leaves), "leaves")
		})
	}
}

// --- Ablations: the design choices the paper calls out ---

// BenchmarkAblationSortedVersions measures the gate-tree edge pre-sorting:
// without it every candidate version must be tried.
func BenchmarkAblationSortedVersions(b *testing.B) {
	for _, sorted := range []bool{true, false} {
		name := "sorted"
		if !sorted {
			name = "unsorted"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProblem(b, "c880", library.DefaultOptions(), core.ObjTotal)
			defer func() { p.Ablate = core.Ablation{} }()
			p.Ablate = core.Ablation{NoSortedVersions: !sorted}
			b.ResetTimer()
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.Stats.GateTrials), "gate_trials")
			b.ReportMetric(sol.Leak/1000, "uA_leak")
		})
	}
}

// BenchmarkAblationIncrementalSTA measures incremental retiming against
// from-scratch analysis on every gate-tree trial.
func BenchmarkAblationIncrementalSTA(b *testing.B) {
	for _, incremental := range []bool{true, false} {
		name := "incremental"
		if !incremental {
			name = "full-sta"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProblem(b, "c880", library.DefaultOptions(), core.ObjTotal)
			defer func() { p.Ablate = core.Ablation{} }()
			p.Ablate = core.Ablation{FullSTA: !incremental}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStateBounds measures the 3-valued partial-state bounds:
// without them Heuristic2 explores blindly, reaching worse states in the
// same time budget.
func BenchmarkAblationStateBounds(b *testing.B) {
	for _, bounds := range []bool{true, false} {
		name := "bounds"
		if !bounds {
			name = "no-bounds"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProblem(b, "c432", library.DefaultOptions(), core.ObjTotal)
			defer func() { p.Ablate = core.Ablation{} }()
			p.Ablate = core.Ablation{NoStateBounds: !bounds}
			b.ResetTimer()
			var sol *core.Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic2, Penalty: 0.05, TimeLimit: 50 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Leak/1000, "uA_leak")
			b.ReportMetric(float64(sol.Stats.Leaves), "leaves")
		})
	}
}

// BenchmarkExtensionNitridedOxide exercises the PMOS-gate-leakage extension
// (paper section 2: nitrided dielectrics): the library must also assign
// thick oxide to PMOS devices, and reductions shrink slightly.
func BenchmarkExtensionNitridedOxide(b *testing.B) {
	lib, err := library.Cached(tech.Nitrided(), library.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gen.ByName("c432")
	if err != nil {
		b.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		b.Fatal(err)
	}
	avg, err := p.AverageRandomLeak(1, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sol *core.Solution
	for i := 0; i < b.N; i++ {
		sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avg/sol.Leak, "X_reduction")
}

// BenchmarkExtensionRefinement measures the iterated-descent extension:
// extra passes over heuristic 1's result shave off remaining leakage at
// small cost.
func BenchmarkExtensionRefinement(b *testing.B) {
	for _, refine := range []bool{false, true} {
		name := "heu1"
		if refine {
			name = "heu1+refine"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProblem(b, "c880", library.DefaultOptions(), core.ObjTotal)
			var sol *core.Solution
			var err error
			for i := 0; i < b.N; i++ {
				if refine {
					sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05, RefinePasses: 4})
				} else {
					sol, err = solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sol.Leak/1000, "uA_leak")
		})
	}
}

// BenchmarkExtensionVariationMC measures the process-variation Monte Carlo
// (statistical standby-leakage analysis) on an optimized solution.
func BenchmarkExtensionVariationMC(b *testing.B) {
	p := mustProblem(b, "c880", library.DefaultOptions(), core.ObjTotal)
	sol, err := solve(p, core.Options{Algorithm: core.AlgHeuristic1, Penalty: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var st *variation.Stats
	for i := 0; i < b.N; i++ {
		st, err = variation.MonteCarlo(p, sol, variation.DefaultModel(), 1000)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.MeanToNominal, "mean_to_nominal")
}

// BenchmarkExtensionTemperature sweeps the standby junction temperature
// (paper footnote 1 analyzes at room temperature): subthreshold leakage is
// exponentially temperature-sensitive while gate tunneling is not, so the
// Igate share of total leakage collapses at hot corners.
func BenchmarkExtensionTemperature(b *testing.B) {
	for _, tc := range []struct {
		name   string
		kelvin float64
	}{{"300K", 300}, {"358K", 358}, {"383K", 383}} {
		b.Run(tc.name, func(b *testing.B) {
			p := tech.AtTemperature(tc.kelvin)
			nand2 := cell.NAND(2)
			fast := nand2.FastAssignment()
			var lk cell.Leakage
			for i := 0; i < b.N; i++ {
				var err error
				lk, err = nand2.CharacterizeLeakage(p, 3, fast)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lk.Total(), "nA_total")
			b.ReportMetric(lk.Igate/lk.Total()*100, "igate_pct")
		})
	}
}

// --- Micro-benchmarks of the substrates ---

// BenchmarkSpnetSolve measures the DC network solver on a NAND4 stack.
func BenchmarkSpnetSolve(b *testing.B) {
	p := tech.Default()
	nand4 := 4
	devs := make([]device.Device, nand4)
	refs := make([]spnet.Element, nand4)
	corners := make([]tech.Corner, nand4)
	gates := make([]float64, nand4)
	for i := range devs {
		devs[i] = device.Device{Kind: tech.NMOS, W: 4, Corner: tech.FastCorner}
		refs[i] = spnet.DevRef{Index: i, Gate: i}
		corners[i] = tech.FastCorner
	}
	n := &spnet.Network{Devices: devs, Root: spnet.Series(refs), NumGates: nand4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Solve(p, corners, gates, p.Vdd, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogicSim measures 2-valued simulation of c7552.
func BenchmarkLogicSim(b *testing.B) {
	prof, err := gen.ByName("c7552")
	if err != nil {
		b.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		b.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		b.Fatal(err)
	}
	vec := sim.RandomVectors(1, len(cc.PI), 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Eval(cc, vec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIncrementalSTA measures single-choice retiming on c7552.
func BenchmarkIncrementalSTA(b *testing.B) {
	p := mustProblem(b, "c7552", library.DefaultOptions(), core.ObjTotal)
	state, err := p.Timer.NewState(p.Timer.FastChoices())
	if err != nil {
		b.Fatal(err)
	}
	cells := p.Timer.Cells
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gi := i % len(cells)
		cell := cells[gi]
		ch := cell.MinLeakChoice(0)
		if i%2 == 1 {
			ch = cell.FastChoice(0)
		}
		state.SetChoice(gi, ch)
		_ = state.Delay()
	}
}

// BenchmarkBenchParse measures .bench round-trip of the multiplier.
func BenchmarkBenchParse(b *testing.B) {
	prof, err := gen.ByName("c6288")
	if err != nil {
		b.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, circ); err != nil {
		b.Fatal(err)
	}
	src := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ReadBench(bytes.NewReader(src), "c6288"); err != nil {
			b.Fatal(err)
		}
	}
}
