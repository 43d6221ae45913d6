package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/sta"
	"svto/internal/tech"
)

// setupReps is how many times an end-to-end run repeats the set-up;
// setup_s is their median, so one slow repetition does not move it.
const setupReps = 3

type config struct {
	seed   int64
	window time.Duration
	trace  bool
	small  bool
	record bool
	nproc  int
	outDir string
}

// instance is one set-up circuit of a workload.
type instance struct {
	spec     instSpec
	circ     *netlist.Circuit
	prob     *core.Problem
	baseline float64 // random-vector average leakage (nA)
}

// bench is one run of one workload.
type bench struct {
	cfg   config
	wl    *workload
	lib   *library.Library
	insts map[string]*instance
	gates int

	// optimum is the Workers=1 objective of every exhaustive job; upper is
	// the objective a job must not exceed (exact ≤ heuristic 2 ≤ heuristic 1).
	optimum map[string]float64
	upper   map[string]float64
	// observed collects the Workers=1 objective bits under --record-refs.
	observed map[string]uint64
	// reduction is each primary job's baseline ÷ optimized leakage.
	reduction map[string]float64

	clu *cluster
	cal *calibrator
	// smp is the calibration sampler of an untraced run whose solves leave
	// a CPU idle; nil otherwise.
	smp *sampler

	attempted, failed int
}

func newBench(cfg config, wl *workload) *bench {
	return &bench{
		cfg:       cfg,
		wl:        wl,
		optimum:   map[string]float64{},
		upper:     map[string]float64{},
		observed:  map[string]uint64{},
		reduction: map[string]float64{},
		cal:       newCalibrator(),
	}
}

// close stops the cluster and the sampler, if they were started.
func (b *bench) close() {
	if b.clu != nil {
		b.clu.stop()
	}
	if b.smp != nil {
		b.smp.stop()
	}
}

// burst times a kernel burst right after a timed solve of d, on par
// goroutines, when no sampler runs.  Traced runs calibrate no solve.
func (b *bench) burst(d time.Duration, par int) float64 {
	if b.smp != nil || b.cfg.trace {
		return 0
	}
	return b.cal.measure(d, par)
}

// calibrate sets a timed solve's kernel time per unit and calibrated time:
// from the sampler when one ran, else from the burst after it.  The sampler
// must have been stopped.
func (b *bench) calibrate(t *jobTime) {
	if b.smp != nil {
		t.UnitS = b.smp.unitOver(t.start, t.dur)
		t.AdjS = t.S * calibSampleRefS / t.UnitS
		return
	}
	t.AdjS = t.S * calibRefS / t.UnitS
}

// fail counts one failed solve and reports it on standard error.
func (b *bench) fail(what string, err error) {
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s: %v\n", b.wl.name, what, err)
}

// setup builds everything the timed solves need: the library, the
// workload's circuits, their Problems and their random-vector baselines.
func (b *bench) setup(tr *tracer) error {
	var lib *library.Library
	if err := tr.span("library.build", "", func() (err error) {
		lib, err = library.Build(tech.Default(), library.DefaultOptions())
		return err
	}); err != nil {
		return err
	}
	insts := make(map[string]*instance, len(b.wl.insts))
	gates := 0
	for _, spec := range b.wl.insts {
		in := &instance{spec: spec}
		if err := tr.span("gen.build", spec.name, func() (err error) {
			in.circ, err = spec.build()
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		if err := tr.span("core.new_problem", spec.name, func() (err error) {
			in.prob, err = core.NewProblem(in.circ, lib, sta.DefaultConfig(), core.ObjTotal)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		if err := tr.span("core.baseline", spec.name, func() (err error) {
			in.baseline, err = in.prob.AverageRandomLeak(b.cfg.seed, spec.vectors)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		insts[spec.name] = in
		gates += len(in.circ.Gates)
	}
	b.lib, b.insts, b.gates = lib, insts, gates
	return nil
}

// prepare computes, untimed, what the checks compare against, then starts
// the cluster if the workload has one.  A failing reference solve counts as
// a failed attempt; the checks that needed it are skipped.
func (b *bench) prepare(ctx context.Context) error {
	for _, j := range b.wl.jobs {
		if j.alg != core.AlgHeuristic2 && j.alg != core.AlgExact {
			continue
		}
		if _, done := b.upper[j.key()]; done {
			continue
		}
		if err := b.references(ctx, j); err != nil {
			b.attempted++
			b.fail("reference for "+j.key(), err)
		}
	}
	if b.wl.cluster() {
		clu, err := startCluster(b.cfg.nproc, filepath.Join(b.cfg.outDir, "ckpt"))
		if err != nil {
			return fmt.Errorf("starting the cluster: %w", err)
		}
		b.clu = clu
	}
	return nil
}

// references records the bounds a tree-search job is checked against: the
// Heuristic 1 objective every tree search starts from; for an exact job,
// the exhaustive Heuristic 2 objective; for an exhaustive job, the
// Workers=1 optimum.
func (b *bench) references(ctx context.Context, j jobSpec) error {
	seed, err := b.insts[j.inst].prob.SeedSolution(j.penalty)
	if err != nil {
		return err
	}
	b.upper[j.key()] = seed.Leak
	if j.alg == core.AlgExact {
		h2 := j
		h2.alg, h2.workers = core.AlgHeuristic2, 1
		b.upper[h2.key()] = seed.Leak
		sol, err := b.referenceSolve(ctx, h2)
		if err != nil {
			return err
		}
		b.upper[j.key()] = sol.Leak
	}
	if j.exhaustive() {
		w1 := j
		w1.workers = 1
		sol, err := b.referenceSolve(ctx, w1)
		if err != nil {
			return err
		}
		b.optimum[j.key()] = sol.Leak
	}
	return nil
}

// referenceSolve runs one untimed local solve and checks it like a timed one.
func (b *bench) referenceSolve(ctx context.Context, j jobSpec) (*core.Solution, error) {
	p, err := b.problem(j)
	if err != nil {
		return nil, err
	}
	sol, err := p.Solve(ctx, b.options(j))
	return sol, b.checkLocal(j, p, sol, err, true)
}

// problem returns the Problem a solve of j runs on.
func (b *bench) problem(j jobSpec) (*core.Problem, error) {
	in := b.insts[j.inst]
	if !j.fresh {
		return in.prob, nil
	}
	return core.NewProblem(in.circ, b.lib, sta.DefaultConfig(), core.ObjTotal)
}

// options are the default solve options of j: no ablations, no portfolio,
// and Options.Seed left at 0 (bound-guided task order).  A seeded task
// shuffle moves the work of an exhaustive multi-worker search by up to 6x
// from seed to seed (mux1x7: 1.9k to 17k leaves), which would bury any
// change in noise.
func (b *bench) options(j jobSpec) core.Options {
	return core.Options{
		Algorithm: j.alg,
		Penalty:   j.penalty,
		Workers:   j.workers,
		MaxLeaves: j.maxLeaves,
	}
}

// checkLocal applies the per-solve checks to a local solve: no error, no
// worker failures, no interruption the job did not budget for, a delay
// that passes a from-scratch Timer.Analyze against the budget, and an
// objective that agrees with the references (bit for bit with refs.go for
// Workers=1 Solve calls, when bitExact is set).
func (b *bench) checkLocal(j jobSpec, p *core.Problem, sol *core.Solution, err error, bitExact bool) error {
	if err != nil {
		return err
	}
	if sol == nil {
		return errors.New("no solution")
	}
	if n := len(sol.Stats.WorkerFailures); n > 0 {
		return fmt.Errorf("%d worker failures, first: %s", n, sol.Stats.WorkerFailures[0].Err)
	}
	if sol.Stats.Interrupted && j.maxLeaves == 0 {
		return errors.New("search interrupted without a leaf budget")
	}
	delay, err := p.Timer.Analyze(sol.Choices)
	if err != nil {
		return fmt.Errorf("delay recheck: %w", err)
	}
	if budget := p.Budget(j.penalty); delay > budget+core.DelayEps {
		return fmt.Errorf("recomputed delay %.6f ps exceeds the budget %.6f ps", delay, budget)
	}
	return b.checkObjective(j, sol.Leak, bitExact)
}

// checkObjective compares an objective with the references of its job.
func (b *bench) checkObjective(j jobSpec, leak float64, bitExact bool) error {
	if bitExact && j.workers == 1 {
		if err := b.checkBits(j, leak); err != nil {
			return err
		}
	}
	if opt, ok := b.optimum[j.key()]; ok && math.Abs(leak-opt) > core.LeakEps {
		return fmt.Errorf("objective %.12g nA differs from the Workers=1 optimum %.12g nA", leak, opt)
	}
	if ub, ok := b.upper[j.key()]; ok && leak > ub+core.LeakEps {
		return fmt.Errorf("objective %.12g nA exceeds %.12g nA (exact ≤ heuristic 2 ≤ heuristic 1)", leak, ub)
	}
	return nil
}

// checkBits compares a Workers=1 objective with the one recorded in refs.go
// at the default seed.  Every seed-independent instance must have one.
func (b *bench) checkBits(j jobSpec, leak float64) error {
	bits := math.Float64bits(leak)
	key := j.key()
	if b.cfg.record {
		b.observed[key] = bits
		return nil
	}
	want, ok := refs[key]
	switch {
	case !ok && b.insts[j.inst].spec.fixed:
		return fmt.Errorf("no reference objective recorded for %s", key)
	case ok && bits != want:
		return fmt.Errorf("objective %.17g nA differs from the recorded reference %.17g nA",
			leak, math.Float64frombits(want))
	}
	return nil
}

// outcome is one timed solve.
type outcome struct {
	start time.Time
	dur   time.Duration
	// unitS is the kernel burst's time per unit right after the solve, or
	// 0 when the burst did not run.
	unitS  float64
	leaves float64
	leak   float64
	err    error
}

// runJob runs and checks one timed solve.
func (b *bench) runJob(ctx context.Context, j jobSpec, jobID string) outcome {
	if j.cluster {
		return b.runClusterJob(ctx, j, jobID)
	}
	p, err := b.problem(j)
	if err != nil {
		return outcome{err: err}
	}
	start := time.Now()
	sol, err := p.Solve(ctx, b.options(j))
	o := outcome{start: start, dur: time.Since(start)}
	o.unitS = b.burst(o.dur, j.workers)
	if o.err = b.checkLocal(j, p, sol, err, true); o.err != nil {
		return o
	}
	o.leak, o.leaves = sol.Leak, leafCount(j, sol.Stats.Leaves, sol.Stats.Interrupted)
	return o
}

// leafCount is the leaf work of a solve.  Stats.Leaves is an exactly-once
// counter: a budget-interrupted pool run rolls its in-flight tasks back and
// can report far fewer leaves than it evaluated (c432 at Workers=2 and
// MaxLeaves=2000 reports 1).  A run stopped by its leaf budget is therefore
// credited with the budget.
func leafCount(j jobSpec, leaves int64, interrupted bool) float64 {
	if j.maxLeaves > 0 && interrupted {
		return float64(j.maxLeaves)
	}
	return float64(leaves)
}

// sample is one pass over a workload's jobs.
type sample struct {
	// SolveS is the pass's wall-clock solve time, uncalibrated.
	SolveS float64   `json:"solve_s"`
	Leaves float64   `json:"leaves"`
	Jobs   []jobTime `json:"jobs"`
}

// jobTime is one successful timed solve of a pass.
type jobTime struct {
	Job    int     `json:"job"` // index into the workload's jobs
	S      float64 `json:"s"`   // wall clock
	UnitS  float64 `json:"unit_s"`
	AdjS   float64 `json:"adj_s"` // S × the reference ÷ UnitS
	Leaves float64 `json:"leaves"`

	start time.Time
	dur   time.Duration
}

// pass runs every job of the workload once.
func (b *bench) pass(ctx context.Context, n int) sample {
	var s sample
	for i, j := range b.wl.jobs {
		o := b.runJob(ctx, j, fmt.Sprintf("pass%d-job%d", n, i))
		b.attempted++
		if o.err != nil {
			b.fail(j.key(), o.err)
			continue
		}
		sec := o.dur.Seconds()
		s.Jobs = append(s.Jobs, jobTime{Job: i, S: sec, UnitS: o.unitS, Leaves: o.leaves, start: o.start, dur: o.dur})
		s.SolveS += sec
		s.Leaves += o.leaves
		// A seed-drawn instance's reduction depends on the circuit drawn,
		// so only the fixed instances enter reduction_x.
		if in := b.insts[j.inst]; j.primary && in.spec.fixed {
			b.reduction[j.key()] = in.baseline / o.leak
		}
	}
	return s
}

// measure runs passes until the window is spent.  The first pass always
// runs; a later one starts only if a pass as long as the last still fits.
func (b *bench) measure(ctx context.Context) []sample {
	var samples []sample
	start := time.Now()
	for {
		t0 := time.Now()
		samples = append(samples, b.pass(ctx, len(samples)))
		if time.Since(start)+time.Since(t0) > b.cfg.window || ctx.Err() != nil {
			return samples
		}
	}
}

// endToEnd is an untraced run: set-up (repeated), references, then passes.
// Set-up builds the library on every CPU, so each set-up is calibrated by
// a burst.  When the workload's solves leave a CPU idle, a sampler then
// times the host speed on it from the references to the last solve.
func (b *bench) endToEnd(ctx context.Context, rec *record) (map[string]metric, error) {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.setup(nil); err != nil {
			return nil, err
		}
		d := time.Since(start)
		rec.SetupS = append(rec.SetupS, d.Seconds())
		rec.SetupAdjS = append(rec.SetupAdjS, d.Seconds()*calibRefS/b.cal.measure(d, 1))
	}
	rec.Env.Calibration = "burst"
	if b.wl.workers() < b.cfg.nproc {
		b.smp = startSampler()
		rec.Env.Calibration = "sampler"
	}
	if err := b.prepare(ctx); err != nil {
		return nil, err
	}
	rec.Samples = b.measure(ctx)
	if b.smp != nil {
		b.smp.stop()
	}
	for i := range rec.Samples {
		for k := range rec.Samples[i].Jobs {
			b.calibrate(&rec.Samples[i].Jobs[k])
		}
	}
	solve, leaves := adjusted(rec.Samples, len(b.wl.jobs))
	rate := 0.0
	if solve > 0 {
		rate = leaves / solve
	}
	return map[string]metric{
		"setup_s":      {median(rec.SetupAdjS), "s"},
		"solve_s":      {solve, "s"},
		"leaves_per_s": {rate, "1/s"},
		"reduction_x":  {geomean(b.reduction), "x"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"pass_rate":    {1 - float64(b.failed)/float64(max(b.attempted, 1)), "ratio"},
	}, nil
}

// adjusted sums, over the workload's jobs, the median across passes of each
// job's calibrated solve time and of its leaf count.  Tenants sharing the
// host slow solves by 20-50% for stretches of seconds to minutes; the
// calibration kernel slows with them, so the calibrated times hold steady
// where the raw ones drift.
func adjusted(samples []sample, jobs int) (solveS, leaves float64) {
	adj := make([][]float64, jobs)
	lv := make([][]float64, jobs)
	for _, s := range samples {
		for _, jt := range s.Jobs {
			adj[jt.Job] = append(adj[jt.Job], jt.AdjS)
			lv[jt.Job] = append(lv[jt.Job], jt.Leaves)
		}
	}
	for j := range adj {
		solveS += median(adj[j])
		leaves += median(lv[j])
	}
	return solveS, leaves
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of the map's values, summed in key order
// so the result repeats bit for bit.
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, k := range keys {
		sum += math.Log(m[k])
	}
	return math.Exp(sum / float64(len(keys)))
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
