// Package relax computes Lagrangian-relaxation lower bounds for the
// simultaneous state/Vt/Tox assignment search.
//
// The cheap bounds the search uses everywhere (minChoice/minAny contribution
// sums maintained by sim.Inc3) are delay-oblivious: a gate
// contributes its lowest-objective choice even when that choice alone blows
// the delay budget.  This package tightens them by dualizing a per-gate
// surrogate of the delay constraint.  For gate g, state s and choice c let
//
//	dlb(g,c) = delay of the certified lower-bound timing model (sta.Lower)
//	           with gate g pinned to c's arcs
//
// — a true lower bound on the delay of any complete assignment containing
// (g ← c).  Note what dlb is NOT: the delay with every other gate at its
// fastest version.  Choices couple through net loads (a slow thick-oxide
// version presents smaller pin capacitances, speeding up its fan-in
// drivers), so circuit delay is not monotone in per-gate slowness and the
// all-fast baseline is not a valid probe floor; sta.Lower instead charges
// every other connection its pointwise-minimum arc and every net its
// minimum possible load, a combination no real assignment beats on any
// component, and verifies the NLDM grid monotonicity that induction needs.
//
// The gate-tree descent accepts a choice when the incremental timing state
// reports delay ≤ Budget + DelayEps, so any choice appearing in a leaf the
// search can produce satisfies dlb(g,c) ≤ T' where
//
//	T' = Budget + DelayEps + guard
//
// and guard is a small explicit margin (slackGuard) covering the two ways a
// computed quantity can sit off the exact recurrence: the incremental
// state's 1e-9 change cutoff lets accepted assignments drift below the
// exact fixpoint by at most a few nanoseconds-of-picoseconds per gate of
// depth, and edge extrapolation of the bilinear tables can deviate from
// monotonicity by the rounding-level cross-term imbalance of the edge
// cells.  Choices with MaxFactor ≤ 1 are accepted by the descent without a
// delay check at all, so their slack is clamped to ≤ 0 unconditionally.
//
// Each surrogate is used in its clamped form
//
//	slack(g,c) = max(dlb(g,c) − T', 0 if the descent can accept c)
//
// — acceptable choices (slack ≤ 0, or MaxFactor ≤ 1, which the descent
// accepts without a delay check) carry exactly zero slack.  Every leaf the
// search can produce still satisfies every clamped surrogate, so relaxing
// them with multipliers λ[g,s] ≥ 0 gives the per-gate dual function
//
//	q[g,s](λ) = min over choices c of  obj(c) + λ·slack(g,c)
//
// and Σ_g q[g,s_g](λ_g) is an admissible lower bound on the objective of any
// leaf the search can produce, for every λ ≥ 0.  The clamp is what makes
// the dual worth solving: with raw slacks, acceptable choices' negative
// slopes drag the envelope down and cap q* strictly below the cost of
// feasibility; with clamped slacks q(λ) is nondecreasing and climbs until
// every infeasible-alone choice has priced itself out, reaching the
// choice-elimination bound — the cheapest choice the descent could actually
// accept — at a finite λ*.
//
// Because the dualized constraints are per-gate, the dual decomposes
// exactly: each (gate, state) multiplier is optimized independently, and
// the optimum λ*[g,s] is a build-time constant of (circuit, library,
// objective, budget) — the fixpoint every deterministic subgradient
// schedule converges to.  q[g,s] is a concave piecewise-linear function of
// λ (a lower envelope of lines), so λ* is found exactly by evaluating q at
// λ = 0 and at every pairwise crossing of choice lines, no iteration or
// step-size schedule required.
//
// Almost every slack is settled without sta.Lower.  dlb(g,c) bounds the
// delay of every completion with g at c from below, and the all-fast
// completion with only g changed is one of them, so dlb(g,c) is at most
// that completion's delay up to the drift and rounding slackGuard already
// absorbs.  Build therefore keeps one all-fast incremental timing state
// (sta.State) and screens each slow choice with SetChoice, Delay and
// SetChoice back, tens of microseconds against milliseconds for a Probe:
// when the screened delay is ≤ Budget + DelayEps, dlb ≤ T' and the clamped
// slack is exactly 0, the value a probe would have produced.  Only the
// choices the screen cannot settle are probed, and sta.Lower is built on
// the first of them; if it cannot be built, every remaining slack is forced
// to zero (see Build).  The tables are bit-identical with and without the
// screen.
//
// The result is a second contribution-table pair (Known/Unknown) with
// Known[g][s] = q[g,s](λ*) ≥ minChoice[g][s] and Unknown[g] = min_s
// Known[g][s] ≥ minAny[g]; the search feeds them to the same incremental
// 3-valued machinery (sim.Inc3) it uses for the cheap bound, so a
// relaxation probe costs exactly one Assign/Bound/Undo on the gate cone.
//
// Past the guarded slack, admissibility is float-exact: an acceptable
// choice's clamped slack is exactly zero, λ·0 = 0, and fl(obj + 0) = obj,
// so the choice's line sits exactly at its objective.  The per-gate
// contributions are then summed in gate order by sim.Inc3.Bound — the same
// order and association leakOf uses for a complete assignment — and
// term-wise ≤ is preserved by monotonicity of rounded addition.
package relax

import (
	"context"
	"fmt"
	"math"

	"svto/internal/library"
	"svto/internal/sta"
)

// Config parameterizes Build.
type Config struct {
	// Obj maps a choice to its objective value (total leakage or Isub).
	Obj func(*library.Choice) float64
	// Budget is the absolute delay bound (ps).
	Budget float64
	// DelayEps is the feasibility slack the search applies to delay-budget
	// comparisons; slacks are computed against Budget+DelayEps so a choice
	// the gate-tree descent would accept never contributes a positive term.
	DelayEps float64
	// Ctx, when non-nil, lets a time-limited or cancelled search abandon
	// the build: Build checks it between gates and returns the context's
	// error.  Callers degrade to the cheap bound — the probes are a
	// startup investment a nearly-expired budget cannot amortize.
	Ctx context.Context
}

// Engine holds the relaxation bound tables for one (problem, budget) pair.
// All fields are immutable after Build, so one Engine is shared read-only by
// every search worker.
type Engine struct {
	// Known[g][s] is the dual value q[g,s](λ*): the gate's admissible
	// contribution when its input state is known.  Always ≥ the cheap
	// minChoice[g][s] (λ = 0 is a candidate).
	Known [][]float64
	// Unknown[g] = min_s Known[g][s]: the contribution while the gate
	// state is undetermined.  Always ≥ the cheap minAny[g].
	Unknown []float64

	improved int // count of (g,s) entries with Known > cheap minimum
}

// Improved reports whether any (gate, state) bound is strictly tighter than
// the delay-oblivious minimum — when false the engine adds no pruning power
// (the budget is loose enough that every gate's cheapest choice is feasible
// alone) and callers should drop it instead of paying probes for it.
func (e *Engine) Improved() bool { return e.improved > 0 }

// ActiveEntries returns the number of (gate, state) entries whose bound is
// strictly tighter than the cheap minimum.
func (e *Engine) ActiveEntries() int { return e.improved }

// probeKey identifies a delay probe result: dlb depends on the choice only
// through its version and pin permutation (the static timing analysis never
// sees the input state), so choices sharing both reuse one probe.
type probeKey struct {
	version int
	nperm   int8
	perm    [8]int8
}

func keyOf(ch *library.Choice) probeKey {
	k := probeKey{version: ch.Version.Index, nperm: int8(len(ch.Perm))}
	for i, p := range ch.Perm {
		k.perm[i] = int8(p)
	}
	return k
}

// slackGuard is the explicit feasibility margin folded into T' on top of
// the search's DelayEps: it dominates both the incremental timing state's
// per-gate 1e-9 change-cutoff drift (bounded by ~4e-9 ps per gate of
// logical depth, so the gate count is a safe depth bound) and the
// rounding-level cross-term imbalance of edge-extrapolated bilinear
// lookups.  Against picosecond-scale budgets it costs the bound nothing
// measurable; without it, admissibility at near-zero budget margins would
// hang on which of two algorithmically different delay evaluations the
// descent happened to run.
func slackGuard(ngates int) float64 { return 1e-6 + 4e-9*float64(ngates) }

// Build computes every (gate, choice) slack and solves each per-(gate,
// state) dual exactly.  A slack costs one screen on the all-fast incremental
// timing state (SetChoice, Delay, SetChoice back; see the package doc), and
// only a choice the screen cannot settle pays a certified sta.Lower probe.
// Both are memoized per distinct slow (version, permutation) per gate, and
// sta.Lower is built on the first unsettled choice, so a build the screen
// settles entirely never constructs it.  The cost is paid once per
// (problem, budget).
//
// When the library's timing tables cannot be verified monotone (a custom
// library with non-physical grids), every slack is forced to zero: the dual
// degenerates to λ = 0 everywhere, Improved() reports false and the caller
// drops the engine — the cascade degrades to the cheap bound instead of
// risking an uncertified pruning decision.
func Build(timer *sta.Timer, cfg Config) (*Engine, error) {
	return build(timer, cfg, true, nil)
}

// build is Build with the screen switchable, so the screened tables can be
// checked word for word against the probe-only ones.  observe, when
// non-nil, sees every slack the build resolves: the gate, the choice, the
// screen delay (NaN when the screen is off) and the sta.Lower probe (NaN
// when the screen settled the choice or sta.Lower failed), so a test can
// check the screen's premise, dlb ≤ screen delay + slackGuard, against the
// probes of an unscreened build.
func build(timer *sta.Timer, cfg Config, screen bool,
	observe func(gate int, ch *library.Choice, screened, dlb float64)) (*Engine, error) {
	if cfg.Obj == nil {
		return nil, fmt.Errorf("relax: Config.Obj is required")
	}
	ngates := len(timer.Cells)
	accept := cfg.Budget + cfg.DelayEps
	budgetEps := accept + slackGuard(ngates)
	var (
		fast  []*library.Choice
		st    *sta.State // the screen's all-fast timing state; nil unscreened
		lb    *sta.Lower // built on the first choice the screen cannot settle
		lbErr error
	)
	if screen {
		fast = timer.FastChoices()
		var err error
		if st, err = timer.NewState(fast); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		Known:   make([][]float64, ngates),
		Unknown: make([]float64, ngates),
	}
	// Per-leaf scratch, reused across gates/states.
	var objs, slacks []float64
	memo := make(map[probeKey]float64)
	for gi := 0; gi < ngates; gi++ {
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				return nil, cfg.Ctx.Err()
			default:
			}
		}
		cell := timer.Cells[gi]
		ns := cell.Template.NumStates()
		e.Known[gi] = make([]float64, ns)
		for k := range memo {
			delete(memo, k)
		}
		// slackOf computes the clamped surrogate slack of one choice,
		// memoized by (version, permutation).  Acceptable choices (slack
		// ≤ 0, or MaxFactor ≤ 1, which the descent accepts without a delay
		// check) are clamped to exactly zero: every accepted leaf still
		// satisfies the clamped surrogate (λ·0 = 0), so admissibility is
		// untouched, but the dual envelope stops being dragged down by
		// feasible choices' negative slacks — q(λ) becomes nondecreasing in
		// λ and climbs to the choice-elimination bound, the cheapest choice
		// the descent could actually accept, at a finite λ*, pricing
		// infeasible-alone choices out completely.
		slackOf := func(ch *library.Choice) float64 {
			if ch.Version.MaxFactor <= 1 {
				return 0
			}
			key := keyOf(ch)
			if slack, ok := memo[key]; ok {
				return slack
			}
			slack, screened, dlb := 0.0, math.NaN(), math.NaN()
			if st != nil {
				st.SetChoice(gi, ch)
				screened = st.Delay()
				st.SetChoice(gi, fast[gi])
			}
			// NaN (no screen) fails the test, so an unscreened build
			// probes every slow choice.
			if !(screened <= accept) {
				if lb == nil && lbErr == nil {
					lb, lbErr = sta.NewLower(timer)
				}
				if lbErr == nil {
					dlb = lb.Probe(gi, ch)
					if slack = dlb - budgetEps; slack < 0 {
						slack = 0
					}
				}
			}
			if observe != nil {
				observe(gi, ch, screened, dlb)
			}
			memo[key] = slack
			return slack
		}
		unknown := math.Inf(1)
		for s := 0; s < ns; s++ {
			choices := cell.Choices[s]
			objs = objs[:0]
			argmin := 0
			for ci := range choices {
				o := cfg.Obj(&choices[ci])
				objs = append(objs, o)
				if o < objs[argmin] {
					argmin = ci
				}
			}
			// Settle the argmin before the rest: if the lowest-objective
			// choice is itself acceptable, its flat clamped line caps the
			// envelope at q(λ) ≤ q0 for every λ while q(0) = q0 — so
			// q* = q0 with λ* = 0 no matter what the other choices' slacks
			// are, and none of them needs a slack at all.  Under loose
			// budgets (the common case on big circuits) this skips almost
			// every other choice in the build.
			if slackOf(&choices[argmin]) == 0 {
				e.Known[gi][s] = objs[argmin]
				unknown = math.Min(unknown, objs[argmin])
				continue
			}
			slacks = slacks[:0]
			for ci := range choices {
				slacks = append(slacks, slackOf(&choices[ci]))
			}
			q, lambda := solveDual(objs, slacks)
			e.Known[gi][s] = q
			if lambda > 0 {
				e.improved++
			}
			unknown = math.Min(unknown, q)
		}
		e.Unknown[gi] = unknown
	}
	return e, nil
}

// solveDual maximizes q(λ) = min_i (objs[i] + λ·slacks[i]) over λ ≥ 0.  The
// envelope is concave piecewise-linear, so the maximum is attained at λ = 0
// or at a crossing of two choice lines; every candidate is evaluated and the
// best (value, then smallest λ) wins, deterministically.
func solveDual(objs, slacks []float64) (q, lambda float64) {
	q0 := math.Inf(1)
	for _, o := range objs {
		if o < q0 {
			q0 = o
		}
	}
	q, lambda = q0, 0
	// Fast path: if some λ=0 argmin already has non-positive slack, the
	// one-sided derivative at 0 is ≤ 0 and λ = 0 is dual-optimal.
	for i, o := range objs {
		if o == q0 && slacks[i] <= 0 {
			return q, 0
		}
	}
	try := func(l float64) {
		if !(l > 0) || math.IsInf(l, 0) || math.IsNaN(l) {
			return
		}
		v := math.Inf(1)
		for i, o := range objs {
			c := o + l*slacks[i]
			if c < v {
				v = c
			}
		}
		if v > q || (v == q && l < lambda) {
			q, lambda = v, l
		}
	}
	for i := range objs {
		for j := i + 1; j < len(objs); j++ {
			if slacks[i] == slacks[j] {
				continue
			}
			// Crossing of lines i and j: obj_i + λ·slack_i = obj_j + λ·slack_j.
			try((objs[i] - objs[j]) / (slacks[j] - slacks[i]))
		}
	}
	return q, lambda
}
