package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/internal/dist"
	"svto/internal/library"
	"svto/internal/relax"
	"svto/internal/sim"
	"svto/internal/sta"
	"svto/pkg/svto"
)

// probeLeaves is the leaf budget of the paper-h2 checkpoint probe: small,
// so the solve stops early and leaves its snapshot behind.
const probeLeaves = 20

// span is one timed call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Instance string `json:"instance,omitempty"`
	StartNS  int64  `json:"start_ns"` // since the tracer started
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  A nil tracer records
// nothing, so set-up code serves traced and untraced runs alike.  It is
// used from one goroutine.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int // indexes of the open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// span runs fn as a span named name, nested in the innermost open span.
func (t *tracer) span(name, inst string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, Workload: t.workload,
		Instance: inst, StartNS: int64(time.Since(t.origin))})
	t.open = append(t.open, i)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = int64(time.Since(t.origin))
	return err
}

// seconds sums the durations of the spans with the given names.
func (t *tracer) seconds(names ...string) float64 {
	var ns int64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				ns += s.EndNS - s.StartNS
			}
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// solveSpans are the spans of the calls an untraced pass times as Solve.
var solveSpans = []string{"core.seed", "relax.build", "core.frontier", "core.tasks", "core.state_only"}

// layers accumulates the per-layer counters of a traced pass.
type layers struct {
	seedGateTrials int64
	relaxImproved  int64
	relaxActive    int64
	frontierTasks  int64
	// search sums the frontier expansions and task drains; leaves is their
	// honest leaf count (the ticket count of budget-interrupted drains).
	search      core.SearchStats
	leaves      int64
	batchSweeps int64
	batchLanes  int64

	setChoiceCalls int64
	// delaySink keeps the replayed Delay results observable.
	delaySink float64

	// ckProb and ckJob are the first budgeted tree search, whose Problem
	// already holds its relaxation engine, for the checkpoint probe.
	ckProb  *core.Problem
	ckJob   jobSpec
	ckBytes int64

	retries, leaseExpiries, dupCompletions int64
}

func (l *layers) addBatch(st core.SearchStats) {
	l.batchSweeps += st.BatchSweeps
	l.batchLanes += st.BatchLanes
}

// traced is a traced run: one set-up with spans, one untraced pass (the
// reference for the tracing overhead), then one pass with every solve split
// into its layers' public calls, each a span.  The spans are written out
// when the run ends.
func (b *bench) traced(ctx context.Context, rec *record) (map[string]metric, error) {
	tr := newTracer(b.wl.name)
	if err := tr.span("setup", "", func() error { return b.setup(tr) }); err != nil {
		return nil, err
	}
	for _, spec := range b.wl.insts {
		in := b.insts[spec.name]
		if err := tr.span("sta.new", spec.name, func() error {
			t, err := sta.New(in.prob.CC, b.lib, sta.DefaultConfig())
			if err != nil {
				return err
			}
			_, _, err = t.DelayBounds()
			return err
		}); err != nil {
			return nil, err
		}
	}
	if err := b.prepare(ctx); err != nil {
		return nil, err
	}
	untraced := b.pass(ctx, 0)
	rec.Samples = []sample{untraced}

	var lay layers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_ = tr.span("pass", "", func() error {
		for i, j := range b.wl.jobs {
			b.attempted++
			if err := tr.span("job", j.inst, func() error {
				return b.tracedJob(ctx, tr, &lay, j, fmt.Sprintf("traced-job%d", i))
			}); err != nil {
				b.fail(j.key()+" (traced)", err)
			}
		}
		return nil
	})
	runtime.ReadMemStats(&after)
	if err := b.probeCheckpoint(ctx, tr, &lay); err != nil {
		b.attempted++
		b.fail("checkpoint probe", err)
	}
	if b.clu != nil {
		for _, s := range b.clu.coord.Shards() {
			if s.Health != nil {
				lay.retries += s.Health.Retries
			}
		}
		h := b.clu.coord.Health()
		lay.leaseExpiries, lay.dupCompletions = h.LeaseExpiries, h.DuplicateCompletions
	}
	if err := tr.write(filepath.Join(b.cfg.outDir, fmt.Sprintf("%s-seed%d.spans.json", b.wl.name, b.cfg.seed))); err != nil {
		return nil, err
	}

	m := b.layerMetrics(tr, &lay)
	traced := tr.seconds(solveSpans...)
	if b.clu != nil {
		traced = tr.seconds("dist.run")
		if local := tr.seconds(solveSpans...); local > 0 {
			rec.ClusterVsLocal = local / traced
		}
	}
	m["trace.overhead_s"] = metric{traced - untraced.SolveS, "s"}
	m["go.alloc_mb"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"}
	m["go.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	return m, nil
}

// tracedJob runs one job of the traced pass.
func (b *bench) tracedJob(ctx context.Context, tr *tracer, lay *layers, j jobSpec, jobID string) error {
	if j.alg == core.AlgHeuristic2 || j.alg == core.AlgExact {
		// A cluster job runs the same instance locally first, split into the
		// calls the coordinator and its shards make, so dist.overhead_s
		// compares like with like.
		if err := b.tracedTree(ctx, tr, lay, j); err != nil || !j.cluster {
			return err
		}
		req, err := b.clusterRequest(j)
		if err != nil {
			return err
		}
		var res *svto.Result
		err = tr.span("dist.run", j.inst, func() (err error) {
			res, err = b.clusterRun(ctx, jobID, req)
			return err
		})
		return b.checkCluster(j, res, err)
	}
	p := b.insts[j.inst].prob
	var sol *core.Solution
	var err error
	if j.alg == core.AlgHeuristic1 {
		// Solve runs exactly the seed descent for Heuristic 1.
		err = tr.span("core.seed", j.inst, func() (err error) {
			sol, err = p.SeedSolution(j.penalty)
			return err
		})
		if sol != nil {
			lay.seedGateTrials += sol.Stats.GateTrials
		}
	} else {
		err = tr.span("core.state_only", j.inst, func() (err error) {
			sol, err = p.Solve(ctx, b.options(j))
			return err
		})
	}
	if err := b.checkLocal(j, p, sol, err, true); err != nil {
		return err
	}
	lay.addBatch(sol.Stats)
	return b.replay(tr, lay, j.inst, p, sol)
}

// tracedTree runs a tree search the way a coordinator and a shard split it:
// the Heuristic 1 seed, the relaxation build, frontier expansion at the
// cluster split depth, then one SolveTasks drain.  The pool drain explores
// in a different order than Solve's sequential Workers=1 search, so its
// objective is held to the optimum and ordering checks, not to refs.go.
func (b *bench) tracedTree(ctx context.Context, tr *tracer, lay *layers, j jobSpec) error {
	p, err := b.problem(j)
	if err != nil {
		return err
	}
	opt := b.options(j)
	var seed *core.Solution
	if err := tr.span("core.seed", j.inst, func() (err error) {
		seed, err = p.SeedSolution(j.penalty)
		return err
	}); err != nil {
		return err
	}
	lay.seedGateTrials += seed.Stats.GateTrials
	lay.addBatch(seed.Stats)
	if err := tr.span("sta.lower", j.inst, func() error {
		_, err := sta.NewLower(p.Timer)
		return err
	}); err != nil {
		return err
	}
	var eng *relax.Engine
	if err := tr.span("relax.build", j.inst, func() (err error) {
		eng, err = relax.Build(p.Timer, relax.Config{
			Obj:      func(ch *library.Choice) float64 { return ch.Leak },
			Budget:   p.Budget(j.penalty),
			DelayEps: core.DelayEps,
			Ctx:      ctx,
		})
		return err
	}); err != nil {
		return err
	}
	if eng.Improved() {
		lay.relaxImproved++
	}
	lay.relaxActive += int64(eng.ActiveEntries())
	// The Problem keeps an engine of its own per budget.  A task-free
	// SolveTasks fills that cache outside the measured spans, so the drain
	// below neither hides a second build nor counts the measured one twice.
	if err := tr.span("relax.cache_fill", j.inst, func() error {
		_, err := p.SolveTasks(ctx, opt, withoutStats(seed), nil)
		return err
	}); err != nil {
		return err
	}
	depth := core.DefaultSplitDepth(b.cfg.nproc, len(p.CC.PI))
	var tasks [][]sim.Value
	var front core.SearchStats
	if err := tr.span("core.frontier", j.inst, func() (err error) {
		tasks, front, err = p.ExpandFrontier(opt, seed, depth)
		return err
	}); err != nil {
		return err
	}
	opt.SplitDepth = depth
	var res *core.TaskResult
	err = tr.span("core.tasks", j.inst, func() (err error) {
		res, err = p.SolveTasks(ctx, opt, withoutStats(seed), tasks)
		return err
	})
	var best *core.Solution
	if res != nil {
		best = res.Best
	}
	if err := b.checkLocal(j, p, best, err, false); err != nil {
		return err
	}
	st := best.Stats
	leaves := st.Leaves
	if st.Interrupted {
		leaves = res.LeavesUsed
	}
	lay.frontierTasks += int64(len(tasks))
	lay.leaves += leaves
	lay.search.StateNodes += front.StateNodes + st.StateNodes
	lay.search.Pruned += front.Pruned + st.Pruned
	lay.search.GateTrials += st.GateTrials
	lay.search.RelaxBounds += st.RelaxBounds
	lay.search.RelaxPruned += st.RelaxPruned
	lay.search.LeafCacheHits += st.LeafCacheHits
	lay.addBatch(front)
	lay.addBatch(st)
	if j.maxLeaves > 0 && lay.ckProb == nil {
		lay.ckProb, lay.ckJob = p, j
	}
	return b.replay(tr, lay, j.inst, p, best)
}

// withoutStats is a copy of sol with zero counters: the seed form
// SolveTasks takes, so the result counts only the call's own work.
func withoutStats(sol *core.Solution) *core.Solution {
	c := *sol
	c.Stats = core.SearchStats{}
	return &c
}

// replay times State.SetChoice plus Delay over a fixed sequence: the
// solution's assignment applied gate by gate, in compiled order, to an
// all-fast timing state.
func (b *bench) replay(tr *tracer, lay *layers, inst string, p *core.Problem, sol *core.Solution) error {
	st, err := p.Timer.NewState(p.Timer.FastChoices())
	if err != nil {
		return err
	}
	_ = tr.span("sta.set_choice", inst, func() error {
		for gi, ch := range sol.Choices {
			st.SetChoice(gi, ch)
			lay.delaySink += st.Delay()
		}
		return nil
	})
	lay.setChoiceCalls += int64(len(sol.Choices))
	return nil
}

// probeCheckpoint times checkpoint.Load and checkpoint.Save on a real
// snapshot: the one an interrupted Heuristic 2 solve leaves (paper-h2), or
// the coordinator's (cluster-bnb).  The other workloads write none.
func (b *bench) probeCheckpoint(ctx context.Context, tr *tracer, lay *layers) error {
	if lay.ckProb == nil && b.clu == nil {
		return nil
	}
	dir := filepath.Join(b.cfg.outDir, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, b.wl.name+"-probe.ckpt")
	copyPath := path + ".copy"
	defer os.Remove(path)
	defer os.Remove(copyPath)
	var interrupted bool
	if b.clu != nil {
		req, err := b.clusterRequest(b.wl.jobs[0])
		if err != nil {
			return err
		}
		req.Search.MaxLeaves = 1
		res, err := b.clu.coord.Run(ctx, "checkpoint-probe", req, dist.RunOptions{
			Baseline:   b.clu.base,
			Checkpoint: svto.Checkpoint{Path: path, Interval: snapshotInterval},
		})
		if err != nil {
			return err
		}
		interrupted = res.Interrupted
	} else {
		opt := b.options(lay.ckJob)
		opt.MaxLeaves = probeLeaves
		opt.Checkpoint = core.CheckpointOptions{Path: path, Interval: time.Hour}
		sol, err := lay.ckProb.Solve(ctx, opt)
		if err != nil {
			return err
		}
		interrupted = sol.Stats.Interrupted
	}
	if !interrupted {
		return errors.New("the probe solve finished inside its leaf budget and left no snapshot")
	}
	var snap *checkpoint.Snapshot
	if err := tr.span("checkpoint.load", "", func() (err error) {
		snap, err = checkpoint.Load(nil, path)
		return err
	}); err != nil {
		return err
	}
	if err := tr.span("checkpoint.save", "", func() error {
		return checkpoint.Save(nil, copyPath, snap)
	}); err != nil {
		return err
	}
	fi, err := os.Stat(copyPath)
	if err != nil {
		return err
	}
	lay.ckBytes = fi.Size()
	return nil
}

// layerMetrics turns the spans and counters of a traced run into the
// per-layer metrics.
func (b *bench) layerMetrics(tr *tracer, lay *layers) map[string]metric {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	s := lay.search
	leaves := float64(lay.leaves)
	distRun := tr.seconds("dist.run")
	distOverhead := 0.0
	if distRun > 0 {
		distOverhead = distRun - tr.seconds(solveSpans...)
	}
	return map[string]metric{
		"library.build_s":            {tr.seconds("library.build"), "s"},
		"library.versions":           {float64(b.lib.TotalVersions()), "count"},
		"gen.build_s":                {tr.seconds("gen.build"), "s"},
		"gen.gates":                  {float64(b.gates), "count"},
		"core.new_problem_s":         {tr.seconds("core.new_problem"), "s"},
		"core.baseline_s":            {tr.seconds("core.baseline"), "s"},
		"sta.new_s":                  {tr.seconds("sta.new"), "s"},
		"sta.set_choice_ns":          {ratio(tr.seconds("sta.set_choice")*1e9, float64(lay.setChoiceCalls)), "ns"},
		"sta.lower_s":                {tr.seconds("sta.lower"), "s"},
		"core.seed_s":                {tr.seconds("core.seed"), "s"},
		"core.seed_gate_trials":      {float64(lay.seedGateTrials), "count"},
		"relax.build_s":              {tr.seconds("relax.build"), "s"},
		"relax.improved":             {float64(lay.relaxImproved), "count"},
		"relax.active_entries":       {float64(lay.relaxActive), "count"},
		"relax.prune_yield":          {ratio(float64(s.RelaxPruned), float64(s.RelaxBounds)), "ratio"},
		"core.frontier_s":            {tr.seconds("core.frontier"), "s"},
		"core.frontier_tasks":        {float64(lay.frontierTasks), "count"},
		"core.tasks_s":               {tr.seconds("core.tasks"), "s"},
		"core.state_nodes":           {float64(s.StateNodes), "count"},
		"core.leaves":                {leaves, "count"},
		"core.gate_trials":           {float64(s.GateTrials), "count"},
		"core.pruned":                {float64(s.Pruned), "count"},
		"core.relax_bounds":          {float64(s.RelaxBounds), "count"},
		"core.relax_pruned":          {float64(s.RelaxPruned), "count"},
		"core.leaf_cache_hits":       {float64(s.LeafCacheHits), "count"},
		"core.ns_per_leaf":           {ratio(tr.seconds("core.tasks")*1e9, leaves), "ns"},
		"core.trials_per_leaf":       {ratio(float64(s.GateTrials), leaves), "ratio"},
		"core.prune_ratio":           {ratio(float64(s.Pruned), 2*float64(s.StateNodes)), "ratio"},
		"core.leaf_cache_hit_ratio":  {ratio(float64(s.LeafCacheHits), leaves), "ratio"},
		"sim.batch_sweeps":           {float64(lay.batchSweeps), "count"},
		"sim.batch_lanes":            {float64(lay.batchLanes), "count"},
		"sim.batch_occupancy":        {ratio(float64(lay.batchLanes), float64(lay.batchSweeps)), "lanes"},
		"checkpoint.save_s":          {tr.seconds("checkpoint.save"), "s"},
		"checkpoint.load_s":          {tr.seconds("checkpoint.load"), "s"},
		"checkpoint.bytes":           {float64(lay.ckBytes), "bytes"},
		"dist.run_s":                 {distRun, "s"},
		"dist.overhead_s":            {distOverhead, "s"},
		"dist.retries":               {float64(lay.retries), "count"},
		"dist.lease_expiries":        {float64(lay.leaseExpiries), "count"},
		"dist.duplicate_completions": {float64(lay.dupCompletions), "count"},
	}
}
