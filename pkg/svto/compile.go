package svto

import (
	"fmt"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/techmap"
)

// Compiled is a Request resolved into its executable parts: the mapped
// (and optionally fused) circuit, the characterized standby library, and
// the search problem over them.  It exists so execution engines other than
// [Run] — the cluster coordinator handing out frontier shards, a worker
// shard re-deriving the identical problem from the same wire Request —
// compile once and share the exact solve/report code path Run uses.  That
// sharing is what makes a distributed run's artifacts byte-identical to a
// local run's: both sides build their Result through the same
// [Compiled.BuildResult].
type Compiled struct {
	Circ *netlist.Circuit
	Lib  *library.Library
	Prob *core.Problem
}

// Compile loads, maps and fuses the design, characterizes (or reuses the
// shared baseline's) standby library, and constructs the search problem.
func Compile(req Request, base *Baseline) (*Compiled, error) {
	circ, err := req.Design.load()
	if err != nil {
		return nil, err
	}
	if !isMapped(circ) {
		if circ, err = techmap.Map(circ); err != nil {
			return nil, fmt.Errorf("svto: technology mapping: %w", err)
		}
	}
	if req.Design.Fuse {
		if circ, err = techmap.Optimize(circ); err != nil {
			return nil, fmt.Errorf("svto: fusion pass: %w", err)
		}
	}
	lib, err := libraryFor(req, base)
	if err != nil {
		return nil, err
	}
	prob, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		return nil, err
	}
	return &Compiled{Circ: circ, Lib: lib, Prob: prob}, nil
}

// CoreOptions maps the request's SearchSpec onto core.Options.  Only the
// search-defining knobs are set; execution-side concerns — checkpointing,
// progress delivery, incumbent sharing — stay with the caller, because a
// coordinator, a shard and a local Run all wire them differently.
func (c *Compiled) CoreOptions(req Request) (core.Options, error) {
	return coreOptions(req)
}

// coreOptions is the one SearchSpec → core.Options mapping, shared by
// CoreOptions and Validate so a request is checked against exactly the
// options it will run with.
func coreOptions(req Request) (core.Options, error) {
	alg, err := coreAlgorithm(req.Search.Algorithm)
	if err != nil {
		return core.Options{}, err
	}
	if err := CheckBaselineVectors(req.Search.BaselineVectors); err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Algorithm:    alg,
		Penalty:      req.Search.Penalty,
		TimeLimit:    req.Search.TimeLimit(),
		Workers:      req.Search.Workers,
		Seed:         req.Search.Seed,
		MaxLeaves:    req.Search.MaxLeaves,
		RefinePasses: req.Search.RefinePasses,
	}, nil
}

// BuildResult packages a finished search solution into the public Result,
// including the per-gate assignment table and the optional random-vector
// baseline.  Every execution path — local Run, distributed coordinator —
// must build its Result here so the artifact writers see identical inputs.
func (c *Compiled) BuildResult(req Request, sol *core.Solution) (*Result, error) {
	prob, circ := c.Prob, c.Circ
	res := &Result{
		Design:       circ.Name,
		Inputs:       append([]string(nil), circ.Inputs...),
		SleepVector:  append([]bool(nil), sol.State...),
		LeakNA:       sol.Leak,
		IsubNA:       sol.Isub,
		IgateNA:      sol.Leak - sol.Isub,
		DelayPS:      sol.Delay,
		BudgetPS:     prob.Budget(req.Search.Penalty),
		DminPS:       prob.Dmin,
		DmaxPS:       prob.Dmax,
		Interrupted:  sol.Stats.Interrupted,
		Resumed:      sol.Stats.Resumed,
		PriorRuntime: sol.Stats.PriorRuntime,
		Stats: Stats{
			StateNodes:       sol.Stats.StateNodes,
			GateTrials:       sol.Stats.GateTrials,
			Leaves:           sol.Stats.Leaves,
			Pruned:           sol.Stats.Pruned,
			RelaxBounds:      sol.Stats.RelaxBounds,
			RelaxPruned:      sol.Stats.RelaxPruned,
			Runtime:          sol.Stats.Runtime,
			Interrupted:      sol.Stats.Interrupted,
			CheckpointWrites: sol.Stats.CheckpointWrites,
			CheckpointErrors: sol.Stats.CheckpointErrors,
		},
		circ: circ,
		lib:  c.Lib,
		prob: prob,
		sol:  sol,
	}
	for _, wf := range sol.Stats.WorkerFailures {
		res.WorkerFailures = append(res.WorkerFailures,
			fmt.Sprintf("worker %d: %s", wf.Worker, wf.Err))
	}
	res.Stats.WorkerFailures = res.WorkerFailures
	for gi := range prob.CC.Gates {
		ch := sol.Choices[gi]
		res.Gates = append(res.Gates, GateAssignment{
			Gate:    prob.CC.NetName[prob.CC.Gates[gi].Out],
			Cell:    prob.Timer.Cells[gi].Template.Name,
			Version: ch.Version.Name,
			Kind:    ch.Kind.String(),
			LeakNA:  ch.Leak,
		})
	}
	if req.Search.BaselineVectors > 0 {
		seed := req.Search.Seed
		if seed == 0 {
			seed = 1
		}
		avg, err := prob.AverageRandomLeak(seed, req.Search.BaselineVectors)
		if err != nil {
			return nil, err
		}
		res.BaselineNA = avg
	}
	return res, nil
}

// ProgressOf converts a core progress snapshot to the public shape — the
// one conversion every execution path (local Run, distributed coordinator)
// reports progress through.
func ProgressOf(p core.Progress) Progress {
	return Progress{
		StateNodes:  p.StateNodes,
		GateTrials:  p.GateTrials,
		Leaves:      p.Leaves,
		Pruned:      p.Pruned,
		RelaxBounds: p.RelaxBounds,
		RelaxPruned: p.RelaxPruned,
		BestLeakNA:  p.BestLeak,
		Elapsed:     p.Elapsed,
	}
}
