package svto

import (
	"context"
	"fmt"
	"time"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/techmap"
)

// Compiled is a Request resolved into its executable parts: the mapped
// (and optionally fused) circuit, the characterized standby library, and
// the search problem over them.  It exists so execution engines other than
// [Run] — the cluster coordinator leasing frontier tasks, a worker shard
// re-deriving the identical problem from the same wire Request — compile
// once and share the exact solve/report code path Run uses.  That sharing
// is what makes a distributed run's artifacts byte-identical to a local
// run's: both sides solve and build their Result through the same
// [Compiled.Solve].
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

// CoreOptions maps the request's SearchSpec and the execution options
// opts onto core.Options: the search-defining knobs from the request, the
// checkpoint (its Interval defaulting to 30s) and the progress callback
// from opts.  A shard, which neither checkpoints nor reports progress,
// passes zero RunOptions.
func (c *Compiled) CoreOptions(req Request, opts RunOptions) (core.Options, error) {
	opt, err := coreOptions(req)
	if err != nil {
		return core.Options{}, err
	}
	if ck := opts.Checkpoint; ck.Path != "" || ck.Resume {
		if ck.Interval == 0 {
			ck.Interval = 30 * time.Second
		}
		opt.Checkpoint = core.CheckpointOptions{Path: ck.Path, Interval: ck.Interval, Resume: ck.Resume}
	}
	if opts.Progress != nil {
		opt.Progress = func(p core.Progress) { opts.Progress(progressOf(p)) }
	}
	return opt, nil
}

// Solve runs the compiled search under opt and packages its Result: the
// one execution path behind Run and the cluster coordinator.  drain
// explores a tree search's subtree tasks; nil runs them on the in-process
// worker pool.  Like Run, Solve can return a Result alongside an error
// when every search worker died.
func (c *Compiled) Solve(ctx context.Context, req Request, opt core.Options, drain core.Drain) (*Result, error) {
	sol, solveErr := c.Prob.SolveWith(ctx, opt, drain)
	if sol == nil {
		return nil, solveErr
	}
	res, err := c.buildResult(req, sol)
	if err != nil {
		return nil, err
	}
	return res, solveErr
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

// buildResult packages a finished search solution into the public Result,
// including the per-gate assignment table and the optional random-vector
// baseline.  Every execution path goes through Solve, so the artifact
// writers of local and distributed runs see identical inputs.
func (c *Compiled) buildResult(req Request, sol *core.Solution) (*Result, error) {
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

// progressOf converts a core progress snapshot to the public shape — the
// one conversion every execution path reports progress through.
func progressOf(p core.Progress) Progress {
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
