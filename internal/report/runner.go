// Package report regenerates the paper's evaluation artifacts: Table 1
// (NAND2 version trade-offs), Table 2 (library sizes), Table 3 (heuristic
// comparison), Table 4 (comparison against state-only and state+Vt), Table
// 5 (library options) and Figures 1 (inverter leakage components) and 5
// (leakage vs. delay penalty for c7552).
package report

import (
	"context"
	"fmt"
	"os"
	"time"

	"svto/internal/core"
	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/tech"
)

// seed drives the random-vector averages of every experiment (DATE 2004).
const seed = 2004

// Runner holds the shared experiment environment.  Its searches run one
// worker with no leaf budget under the default timing configuration.
type Runner struct {
	Tech *tech.Params
	// Vectors is the random-vector count for the average-leakage column
	// (the paper uses 10000).
	Vectors int
	// Heu2Limit is heuristic 2's search budget per (circuit, penalty).
	// The paper used 1800s; the default here is far smaller so the full
	// evaluation completes in minutes.
	Heu2Limit time.Duration

	circuits map[string]*netlist.Circuit
	problems map[problemKey]*core.Problem
}

type problemKey struct {
	circuit string
	opt     library.Options
	obj     core.Objective
}

// NewRunner returns a Runner with the default environment.
func NewRunner() *Runner {
	return &Runner{
		Tech:      tech.Default(),
		Vectors:   10000,
		Heu2Limit: 2 * time.Second,
	}
}

// Circuit builds (and caches) a benchmark circuit by paper name.
func (r *Runner) Circuit(name string) (*netlist.Circuit, error) {
	if c, ok := r.circuits[name]; ok {
		return c, nil
	}
	prof, err := gen.ByName(name)
	if err != nil {
		return nil, err
	}
	c, err := prof.Build()
	if err != nil {
		return nil, err
	}
	if r.circuits == nil {
		r.circuits = map[string]*netlist.Circuit{}
	}
	r.circuits[name] = c
	return c, nil
}

// Problem builds (and caches) an optimization problem for a circuit under a
// library policy and objective.
func (r *Runner) Problem(name string, opt library.Options, obj core.Objective) (*core.Problem, error) {
	key := problemKey{name, opt, obj}
	if p, ok := r.problems[key]; ok {
		return p, nil
	}
	circ, err := r.Circuit(name)
	if err != nil {
		return nil, err
	}
	lib, err := library.Cached(r.Tech, opt)
	if err != nil {
		return nil, err
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), obj)
	if err != nil {
		return nil, err
	}
	if r.problems == nil {
		r.problems = map[problemKey]*core.Problem{}
	}
	r.problems[key] = p
	return p, nil
}

// Solve runs one search through the redesigned entry point under the
// runner's environment; limit only matters for the tree-searching
// algorithms.  A degraded search (worker failures with a usable incumbent)
// is accepted: tables report the best solution found.
func (r *Runner) Solve(p *core.Problem, alg core.Algorithm, penalty float64, limit time.Duration) (*core.Solution, error) {
	sol, err := p.Solve(context.Background(), core.Options{
		Algorithm: alg,
		Penalty:   penalty,
		TimeLimit: limit,
		Workers:   1,
	})
	if err != nil && sol != nil {
		fmt.Fprintf(os.Stderr, "report: warning: %s degraded: %v\n", p.CC.Circuit.Name, err)
		return sol, nil
	}
	return sol, err
}

// AllNames returns the benchmark names in paper order.
func AllNames() []string {
	profiles := gen.Benchmarks()
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.Name
	}
	return names
}

// SmallNames returns a fast subset for tests and quick runs.
func SmallNames() []string { return []string{"c432", "c499", "c880"} }

// microamps converts nA to the paper's µA unit.
func microamps(nA float64) float64 { return nA / 1000 }

// fmtX formats a reduction factor like the paper ("3.6").
func fmtX(x float64) string { return fmt.Sprintf("%.1f", x) }
