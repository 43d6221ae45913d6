package core

import (
	"context"
	"math"
	"testing"
	"time"

	"svto/internal/gen"
	"svto/internal/library"
)

// midCircuit builds a deterministic mapped random-logic block small enough
// for an exhaustive Heuristic2 tree walk (10 inputs) but with enough gates
// for the descent to do real work.
func midCircuit(t *testing.T) *Problem {
	t.Helper()
	circ, err := gen.RandomLogic("solve10", 7, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	return newProblem(t, circ, library.DefaultOptions(), ObjTotal)
}

// A full-tree Heuristic2 search must return the same leakage no matter how
// many workers explore the tree: subtrees share only the incumbent bound,
// and the bound is admissible, so no improving leaf is ever pruned.
func TestSolveParallelMatchesSequential(t *testing.T) {
	p := midCircuit(t)
	const penalty = 0.05
	budget := p.Budget(penalty)

	seq, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, p, seq, budget)
	if seq.Stats.Interrupted {
		t.Error("exhaustive sequential search reported Interrupted")
	}

	for _, workers := range []int{2, 4} {
		par, err := p.Solve(context.Background(), Options{
			Algorithm: AlgHeuristic2, Penalty: penalty, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, p, par, budget)
		if math.Abs(par.Leak-seq.Leak) > 1e-9 {
			t.Errorf("workers=%d leak %.6f != sequential %.6f", workers, par.Leak, seq.Leak)
		}
		if par.Stats.Leaves == 0 || par.Stats.StateNodes == 0 {
			t.Errorf("workers=%d stats not aggregated: %+v", workers, par.Stats)
		}
	}
}

// The exact search must agree across worker counts too (its result is the
// optimum, independent of exploration order).
func TestSolveExactParallelMatchesSequential(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	const penalty = 0.10
	seq, err := p.Solve(context.Background(), Options{Algorithm: AlgExact, Penalty: penalty, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := p.Solve(context.Background(), Options{Algorithm: AlgExact, Penalty: penalty, Workers: 4, SplitDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(par.Leak-seq.Leak) > 1e-9 {
		t.Errorf("parallel exact leak %.6f != sequential %.6f", par.Leak, seq.Leak)
	}
	checkSolution(t, p, par, p.Budget(penalty))
}

// Workers=1 must be bit-for-bit deterministic run to run.
func TestSolveSequentialDeterministic(t *testing.T) {
	p := midCircuit(t)
	opt := Options{Algorithm: AlgHeuristic2, Penalty: 0.10, Workers: 1}
	a, err := p.Solve(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Solve(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Leak != b.Leak || a.Delay != b.Delay {
		t.Errorf("sequential runs disagree: (%.9f, %.9f) vs (%.9f, %.9f)", a.Leak, a.Delay, b.Leak, b.Delay)
	}
	for i := range a.State {
		if a.State[i] != b.State[i] {
			t.Fatalf("sleep vectors differ at input %d", i)
		}
	}
	if a.Stats.StateNodes != b.Stats.StateNodes || a.Stats.Leaves != b.Stats.Leaves {
		t.Errorf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
}

// Cancelling the context must return promptly with the best-so-far (at
// worst the Heuristic1 incumbent) instead of an error.
func TestSolveCancellation(t *testing.T) {
	prof, err := gen.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const penalty = 0.05

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sol, err := p.Solve(ctx, Options{Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Solve took %v after a 100ms cancel", elapsed)
	}
	if !sol.Stats.Interrupted {
		t.Error("cancelled search did not report Interrupted")
	}
	checkSolution(t, p, sol, p.Budget(penalty))

	// A context cancelled before the call still yields the incumbent.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	sol2, err := p.Solve(done, Options{Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := p.Solve(context.Background(),
		Options{Algorithm: AlgHeuristic1, Penalty: penalty, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Leak > h1.Leak+1e-9 {
		t.Errorf("pre-cancelled Solve (%.3f) worse than the Heuristic1 incumbent (%.3f)", sol2.Leak, h1.Leak)
	}
}

// The MaxLeaves work budget bounds the number of evaluated states across
// workers and marks the result interrupted when it truncates the search.
func TestSolveMaxLeaves(t *testing.T) {
	p := midCircuit(t)
	sol, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 2, MaxLeaves: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The budget bounds the tree leaves; the Heuristic1 seed leaf rides
	// for free on top of it.
	if sol.Stats.Leaves > 5+1 {
		t.Errorf("leaf budget 5 overrun: %d leaves", sol.Stats.Leaves)
	}
	if !sol.Stats.Interrupted {
		t.Error("truncated search did not report Interrupted")
	}
	checkSolution(t, p, sol, p.Budget(0.05))
}

// MaxLeaves counts only tree leaves: the Heuristic 1 seed descent is free,
// so a budget of 1 explores exactly one tree leaf (the seed-era accounting
// charged the seed a ticket, making MaxLeaves: 1 explore zero tree leaves).
func TestSolveMaxLeavesSeedIsFree(t *testing.T) {
	p := midCircuit(t)
	sol, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 1, MaxLeaves: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Leaves != 2 {
		t.Errorf("MaxLeaves 1: %d leaves evaluated, want 2 (seed + one tree leaf)", sol.Stats.Leaves)
	}
	if !sol.Stats.Interrupted {
		t.Error("truncated search did not report Interrupted")
	}
}

// A drain stopped by its leaf budget keeps the partial work of the tasks it
// stopped in: nothing hands their frontier on, so no one re-counts them.
// c432's 36 inputs put far more than maxLeaves leaves under every
// split-depth task, so each worker is mid-task when the budget runs out;
// withdrawing those tasks' counters once made Workers=2 report one leaf.
func TestSolveStoppedDrainKeepsCounters(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	const maxLeaves = 300
	for _, workers := range []int{1, 2} {
		sol, err := p.Solve(context.Background(), Options{
			Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: workers, MaxLeaves: maxLeaves,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Stats.Interrupted {
			t.Fatalf("workers=%d: budgeted search was not interrupted", workers)
		}
		// The tree leaves plus the free seed leaf.
		if sol.Stats.Leaves != maxLeaves+1 {
			t.Errorf("workers=%d: %d leaves counted, want %d", workers, sol.Stats.Leaves, maxLeaves+1)
		}
		checkSolution(t, p, sol, p.Budget(0.05))
		if workers > 1 {
			continue
		}
		// Workers=1 is the plain depth-first search; these are its
		// objective and counters on this instance.
		want := Counters{StateNodes: 368, GateTrials: 62350, Leaves: maxLeaves + 1}
		if got := math.Float64bits(sol.Leak); got != 0x40a963f094c15aae {
			t.Errorf("workers=1: leak %.9f (bits %016x), want bits 40a963f094c15aae", sol.Leak, got)
		}
		if sol.Stats.Counters != want {
			t.Errorf("workers=1: counters %+v, want %+v", sol.Stats.Counters, want)
		}
	}
}

// Progress callbacks arrive from one goroutine with monotone counters and a
// final snapshot consistent with the returned stats.
func TestSolveProgress(t *testing.T) {
	p := midCircuit(t)
	var snaps []Progress
	sol, err := p.Solve(context.Background(), Options{
		Algorithm:        AlgHeuristic2,
		Penalty:          0.05,
		Workers:          2,
		Progress:         func(pr Progress) { snaps = append(snaps, pr) },
		ProgressInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Leaves < snaps[i-1].Leaves || snaps[i].StateNodes < snaps[i-1].StateNodes {
			t.Errorf("snapshot %d counters went backwards", i)
		}
		if snaps[i].BestLeak > snaps[i-1].BestLeak+1e-9 {
			t.Errorf("snapshot %d incumbent worsened: %.3f -> %.3f", i, snaps[i-1].BestLeak, snaps[i].BestLeak)
		}
	}
	last := snaps[len(snaps)-1]
	if last.Leaves != sol.Stats.Leaves || last.BestLeak != sol.Leak {
		t.Errorf("final snapshot %+v disagrees with stats %+v / leak %.3f", last, sol.Stats, sol.Leak)
	}
}

// The final progress snapshot must reflect the solution *after* refinement
// passes for tree searches too (the seed implementation emitted it before
// RefinePasses ran, so BestLeak could disagree with the returned solution).
func TestSolveProgressFinalAfterRefine(t *testing.T) {
	p := midCircuit(t)
	var last Progress
	sol, err := p.Solve(context.Background(), Options{
		Algorithm:    AlgHeuristic2,
		Penalty:      0.05,
		Workers:      2,
		RefinePasses: 3,
		Progress:     func(pr Progress) { last = pr },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.BestLeak != sol.Leak {
		t.Errorf("final snapshot BestLeak %.6f != returned leak %.6f", last.BestLeak, sol.Leak)
	}
	if last.GateTrials != sol.Stats.GateTrials {
		t.Errorf("final snapshot GateTrials %d != returned %d (refinement trials missing)",
			last.GateTrials, sol.Stats.GateTrials)
	}
}

// A context cancelled before Solve is called must still deliver the
// documented final snapshot (the seed implementation's early return skipped
// it entirely).
func TestSolveProgressPreCancelled(t *testing.T) {
	p := newProblem(t, tinyCircuit(), library.DefaultOptions(), ObjTotal)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var snaps []Progress
	sol, err := p.Solve(ctx, Options{
		Algorithm: AlgHeuristic2,
		Penalty:   0.05,
		Workers:   2,
		Progress:  func(pr Progress) { snaps = append(snaps, pr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("pre-cancelled Solve delivered no final snapshot")
	}
	if last := snaps[len(snaps)-1]; last.BestLeak != sol.Leak {
		t.Errorf("final snapshot BestLeak %.6f != returned leak %.6f", last.BestLeak, sol.Leak)
	}
}

// The options-level time limit replaces the legacy deadline polling.
func TestSolveTimeLimit(t *testing.T) {
	prof, err := gen.ByName("c880")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	start := time.Now()
	sol, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 2, TimeLimit: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Solve took %v with a 200ms limit", elapsed)
	}
	if !sol.Stats.Interrupted {
		t.Error("time-limited search did not report Interrupted")
	}
}

// Solve must reject exact searches on circuits wider than MaxExactInputs
// and unknown algorithms.
func TestSolveValidation(t *testing.T) {
	prof, err := gen.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prof.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := newProblem(t, circ, library.DefaultOptions(), ObjTotal)
	if _, err := p.Solve(context.Background(), Options{Algorithm: AlgExact, Penalty: 0.05}); err == nil {
		t.Error("exact accepted a 36-input circuit")
	}
	if _, err := p.Solve(context.Background(), Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// RefinePasses in Options must match the standalone Refine composition.
func TestSolveRefinePasses(t *testing.T) {
	p := midCircuit(t)
	const penalty = 0.05
	h1, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic1, Penalty: penalty, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := p.Refine(h1, penalty, 3)
	if err != nil {
		t.Fatal(err)
	}
	viaSolve, err := p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic1, Penalty: penalty, Workers: 1, RefinePasses: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct.Leak-viaSolve.Leak) > 1e-9 {
		t.Errorf("Solve+Refine %.6f != Solve+RefinePasses %.6f", direct.Leak, viaSolve.Leak)
	}
	checkSolution(t, p, viaSolve, p.Budget(penalty))
}

// Heuristic2 stats must be assigned once at the end: the returned counters
// reflect the whole search, not a mid-search snapshot.
func TestHeuristic2StatsConsistent(t *testing.T) {
	p := midCircuit(t)
	sol, err := p.Solve(context.Background(), Options{Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	_, err = p.Solve(context.Background(), Options{
		Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 1,
		Progress: func(pr Progress) { last = pr },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.Leaves != sol.Stats.Leaves || last.StateNodes != sol.Stats.StateNodes ||
		last.GateTrials != sol.Stats.GateTrials || last.Pruned != sol.Stats.Pruned {
		t.Errorf("final progress %+v disagrees with returned stats %+v", last, sol.Stats)
	}
}

func TestAlgorithmString(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		AlgHeuristic1: "heuristic1",
		AlgHeuristic2: "heuristic2",
		AlgExact:      "exact",
		AlgStateOnly:  "state-only",
	} {
		if got := alg.String(); got != want {
			t.Errorf("Algorithm %d: %q != %q", alg, got, want)
		}
	}
}
