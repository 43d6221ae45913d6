// Package relax computes the choice-elimination lower bound for the
// simultaneous state/Vt/Tox assignment search.
//
// The cheap bounds the search uses everywhere (minChoice/minAny contribution
// sums maintained by sim.Inc3) are delay-oblivious: a gate
// contributes its lowest-objective choice even when that choice alone blows
// the delay budget.  This package tightens them by eliminating, per gate,
// the choices no leaf the search can produce contains.  For gate g and
// choice c let
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
// The gate-tree descent accepts a choice when MaxFactor ≤ 1 (no delay
// check at all) or when the incremental timing state reports delay ≤
// Budget + DelayEps, so any choice appearing in a leaf the search can
// produce satisfies dlb(g,c) ≤ T' where
//
//	T' = Budget + DelayEps + guard
//
// and guard is a small explicit margin (slackGuard) covering edge
// extrapolation of the bilinear tables, which can deviate from monotonicity
// by the rounding-level cross-term imbalance of the edge cells.  A choice is
// acceptable when MaxFactor ≤ 1 or dlb(g,c) ≤ T', and
//
//	Known[g][s] = min over acceptable choices c of (g, s) of obj(c)
//	Unknown[g]  = min_s Known[g][s]
//
// are admissible exactly: every leaf has gate g at an acceptable choice,
// whose objective is ≥ Known[g][s].  sim.Inc3.Bound sums the words in gate
// order, the order and association leakOf uses for a complete assignment,
// and rounded addition preserves term-wise ≤.
//
// Almost every check is settled without sta.Lower.  dlb(g,c) bounds the
// delay of every completion with g at c from below, and the all-fast
// completion with only g changed is one of them, so dlb(g,c) is at most
// that completion's delay up to the rounding slackGuard already absorbs.
// Build therefore keeps one all-fast incremental timing state (sta.State)
// and screens each slow choice with SetChoice, Delay and SetChoice back,
// tens of microseconds against milliseconds for a Probe:
// when the screened delay is ≤ Budget + DelayEps, dlb ≤ T' and the choice
// is acceptable, the verdict a probe would have reached.  Only the choices
// the screen cannot settle are probed, and sta.Lower is built on the first
// of them; if it cannot be built, every choice is accepted (see Build).
// The tables are bit-identical with and without the screen.
//
// The search feeds Known/Unknown to each worker's sim.Inc3 as its second
// table, so the relaxation bound comes from the same Assign/Bounds/Undo
// probe as the cheap bound, on the gate cone.  Its gate-tree descents skip,
// untimed, every choice below Known[g][s]: the delay check would reject it.
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
	// comparisons; choices are checked against Budget+DelayEps so a choice
	// the gate-tree descent would accept is never eliminated.
	DelayEps float64
	// Ctx, when non-nil, lets a time-limited or cancelled search abandon
	// the build: Build checks it between gates and returns the context's
	// error.  Callers degrade to the cheap bound — the probes are a
	// startup investment a nearly-expired budget cannot amortize.
	Ctx context.Context
}

// Engine holds the choice-elimination bound tables for one (problem,
// budget) pair.  All fields are immutable after Build, so one Engine is
// shared read-only by every search worker.
type Engine struct {
	// Known[g][s] is the cheapest acceptable choice's objective: the
	// gate's admissible contribution when its input state is known.
	// Always ≥ the cheap minChoice[g][s].
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
// the search's DelayEps: it dominates the rounding-level cross-term
// imbalance of edge-extrapolated bilinear lookups.  Its per-gate term once
// covered the drift of a 1e-9 ps change cutoff in sta; timing is now exact,
// so it covers nothing, but shrinking it could move table words at
// near-zero budget margins, so it keeps its value.
func slackGuard(ngates int) float64 { return 1e-6 + 4e-9*float64(ngates) }

// Build finds, for every (gate, state), the cheapest choice the descent can
// accept, checking only choices cheaper than the best acceptable one found
// so far.  A check costs one screen (see the package doc), and only a
// choice the screen cannot settle pays a certified sta.Lower probe.  Both
// are memoized per distinct slow (version, permutation) per gate, and
// sta.Lower is built on the first unsettled choice, so a build the screen
// settles entirely never constructs it.
//
// When the library's timing tables cannot be verified monotone (a custom
// library with non-physical grids), every choice is accepted: each entry
// falls to the cheap minimum, Improved() reports false and the caller
// drops the engine — the cascade degrades to the cheap bound instead of
// risking an uncertified pruning decision.
func Build(timer *sta.Timer, cfg Config) (*Engine, error) {
	return build(timer, cfg, true, nil)
}

// build is Build with the screen switchable, so the screened tables can be
// checked word for word against the probe-only ones.  observe, when
// non-nil, sees every slow choice the build checks: the gate, the choice,
// the screen delay (NaN when the screen is off) and the sta.Lower probe
// (NaN when the screen settled the choice or sta.Lower failed), so a test
// can check the screen's premise, dlb ≤ screen delay + slackGuard, against
// the probes of an unscreened build.
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
	memo := make(map[probeKey]bool)
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
		clear(memo)
		// acceptable reports whether the descent can accept ch at gate gi:
		// MaxFactor ≤ 1, a screened delay ≤ Budget+DelayEps, or dlb ≤ T'.
		acceptable := func(ch *library.Choice) bool {
			if ch.Version.MaxFactor <= 1 {
				return true
			}
			key := keyOf(ch)
			if ok, seen := memo[key]; seen {
				return ok
			}
			screened, dlb := math.NaN(), math.NaN()
			if st != nil {
				st.SetChoice(gi, ch)
				screened = st.Delay()
				st.SetChoice(gi, fast[gi])
			}
			// NaN (no screen) fails the test, so an unscreened build
			// probes every slow choice it checks.
			ok := screened <= accept
			if !ok {
				if lb == nil && lbErr == nil {
					lb, lbErr = sta.NewLower(timer)
				}
				ok = lbErr != nil
				if !ok {
					dlb = lb.Probe(gi, ch)
					ok = dlb <= budgetEps
				}
			}
			if observe != nil {
				observe(gi, ch, screened, dlb)
			}
			memo[key] = ok
			return ok
		}
		unknown := math.Inf(1)
		for s := 0; s < ns; s++ {
			cheapest, best := math.Inf(1), math.Inf(1)
			for ci := range cell.Choices[s] {
				ch := &cell.Choices[s][ci]
				o := cfg.Obj(ch)
				cheapest = math.Min(cheapest, o)
				if o < best && acceptable(ch) {
					best = o
				}
			}
			e.Known[gi][s] = best
			if best > cheapest {
				e.improved++
			}
			unknown = math.Min(unknown, best)
		}
		e.Unknown[gi] = unknown
	}
	return e, nil
}
