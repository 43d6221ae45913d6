package core

import (
	"math/rand"
	"runtime/debug"
	"sync"
)

// The solver portfolio races complementary strategies for one budget under
// the shared incumbent: while the pool workers run the relaxation-guided
// branch-and-bound (or heuristic-2 tree search), up to two worker slots
// become explorer goroutines performing cheap stochastic descents — even
// slots restart from seed-randomized input states, odd slots perturb the
// current incumbent by a few input flips — each evaluated with the same
// greedy gate-tree descent the heuristics use.  Every improvement installs
// through the ordinary incumbent path (and broadcasts through the cluster
// share when attached), so a lucky explorer tightens every worker's pruning
// bound immediately; on exhaustive runs the final objective is unchanged,
// because explorers only ever install feasible solutions and the incumbent
// is monotone.
//
// Explorer work is deliberately uncharged: no leaf tickets are taken, no
// counters are flushed, and the fault-injection hooks are not consulted, so
// MaxLeaves budgets, checkpointed provenance and fault-test determinism all
// keep their worker-pool meaning.

// portfolioSlots returns how many of the given worker slots the portfolio
// race converts into explorers: at most two, and always leaving at least one
// slot for the tree-search pool.
func portfolioSlots(workers int) int {
	ex := 2
	if workers-1 < ex {
		ex = workers - 1
	}
	if ex < 0 {
		ex = 0
	}
	return ex
}

// startExplorers launches n portfolio explorers and returns a function that
// stops them and waits for them to exit.  seed derives each explorer's
// private RNG stream, so runs with the same Options race the same candidate
// sequences.
func (sh *sharedSearch) startExplorers(n int, seed int64) (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			sh.explore(slot, seed, quit)
		}(i)
	}
	return func() {
		close(quit)
		wg.Wait()
	}
}

// explore is one portfolio explorer loop.  Explorer failures are recorded
// with negative slot ids (-1, -2, …) so stats readers can tell them from
// pool-worker deaths, and they never join the all-workers-died error: the
// search does not depend on the race.
func (sh *sharedSearch) explore(slot int, seed int64, quit <-chan struct{}) {
	id := -1 - slot
	defer func() {
		if r := recover(); r != nil {
			sh.recordExplorerFailure(id, &panicError{val: r, stack: debug.Stack()})
		}
	}()
	base, err := sh.sharedBaseline()
	if err != nil {
		sh.recordExplorerFailure(id, err)
		return
	}
	p := sh.p
	a := p.newLeafArena(base)
	scratch := base.Clone()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(slot) + 1))
	var stats Counters // uncharged: never flushed to the shared totals
	state := a.state
	for {
		select {
		case <-quit:
			return
		default:
		}
		if sh.stop.Load() {
			return
		}
		if slot%2 == 1 && sh.copyBestState(state) {
			// Incumbent perturbation: flip a few inputs of the best state.
			for f := 1 + rng.Intn(3); f > 0; f-- {
				i := rng.Intn(len(state))
				state[i] = !state[i]
			}
		} else {
			// Random restart.
			for i := range state {
				state[i] = rng.Intn(2) == 1
			}
		}
		if err := p.gateStatesInto(a, state); err != nil {
			sh.recordExplorerFailure(id, err)
			return
		}
		scratch.CopyFrom(base)
		leak, isub, delay, err := p.evalStateArena(scratch, a, sh.budget, &stats)
		if err != nil {
			sh.recordExplorerFailure(id, err)
			return
		}
		if sol := sh.inc.OfferLeaf(state, a.choices, leak, isub, delay); sol != nil {
			sh.counters.Add(Counters{PortfolioWins: 1})
		}
	}
}

// copyBestState copies the incumbent's input state into dst, reporting
// whether an incumbent of matching width existed.
func (sh *sharedSearch) copyBestState(dst []bool) bool {
	best := sh.inc.Best()
	if best == nil || len(best.State) != len(dst) {
		return false
	}
	copy(dst, best.State)
	return true
}
