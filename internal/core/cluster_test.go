package core

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"svto/internal/sim"
)

// TestSharedIncumbentMonotone pins the merge semantics every network
// exchange relies on: strictly-better offers install and bump the epoch,
// equal or worse offers (including a solution echoed back through another
// process) are dropped.
func TestSharedIncumbentMonotone(t *testing.T) {
	p := midCircuit(t)
	s := NewSharedIncumbent(p)
	if s.Best() != nil {
		t.Fatal("fresh cell holds an incumbent")
	}

	seed, err := p.SeedSolution(0.05)
	if err != nil {
		t.Fatal(err)
	}
	worse := *seed
	worse.Leak += 1
	if !s.Offer(&worse) {
		t.Fatal("first offer rejected")
	}
	if _, epoch := s.BestEpoch(); epoch != 1 {
		t.Fatalf("epoch after first offer = %d, want 1", epoch)
	}
	if !s.Offer(seed) {
		t.Fatal("strictly better offer rejected")
	}
	echo := *seed // same objective: a broadcast round-tripped back
	if s.Offer(&echo) {
		t.Fatal("equal offer installed — broadcast echo would never terminate")
	}
	if s.Offer(&worse) {
		t.Fatal("worse offer installed")
	}
	if got, epoch := s.BestEpoch(); got != seed || epoch != 2 {
		t.Fatalf("best %p epoch %d, want %p epoch 2", got, epoch, seed)
	}
}

// TestSharedIncumbentConcurrentOffers races leaf offers from several
// goroutines: the lock-free objective bound and the installed solution
// must both end at the minimum offered, whatever the interleaving.
func TestSharedIncumbentConcurrentOffers(t *testing.T) {
	p := midCircuit(t)
	s := NewSharedIncumbent(p)
	if !math.IsInf(s.Obj(), 1) {
		t.Fatalf("empty cell bound = %v, want +Inf", s.Obj())
	}
	seed, err := p.SeedSolution(0.05)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, offers = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < offers; i++ {
				leak := seed.Leak + float64((i*goroutines+g*7919)%(goroutines*offers))
				s.OfferLeaf(seed.State, seed.Choices, leak, seed.Isub, seed.Delay)
			}
		}(g)
	}
	wg.Wait()
	if best := s.Best(); s.Obj() != seed.Leak || best.Leak != seed.Leak {
		t.Errorf("bound %v, best %v after racing offers; want both %v", s.Obj(), best.Leak, seed.Leak)
	}
}

// TestSharedIncumbentSubscribers: every installation notifies all
// subscribers except the one the offer originated from.
func TestSharedIncumbentSubscribers(t *testing.T) {
	p := midCircuit(t)
	s := NewSharedIncumbent(p)
	seed, err := p.SeedSolution(0.05)
	if err != nil {
		t.Fatal(err)
	}

	var a, b atomic.Int64
	idA := s.Subscribe(func(*Solution) { a.Add(1) })
	idB := s.Subscribe(func(*Solution) { b.Add(1) })

	first := *seed
	first.Leak += 2
	s.OfferFrom(idA, &first) // A originated: only B hears it
	if a.Load() != 0 || b.Load() != 1 {
		t.Fatalf("after OfferFrom(A): notified A=%d B=%d, want 0/1", a.Load(), b.Load())
	}
	second := *seed
	second.Leak += 1
	s.Offer(&second) // anonymous origin: both hear it
	if a.Load() != 1 || b.Load() != 2 {
		t.Fatalf("after Offer: notified A=%d B=%d, want 1/2", a.Load(), b.Load())
	}
	s.Unsubscribe(idB)
	s.Offer(seed)
	if a.Load() != 2 || b.Load() != 2 {
		t.Fatalf("after Unsubscribe(B): notified A=%d B=%d, want 2/2", a.Load(), b.Load())
	}
	rejected := *seed
	rejected.Leak += 5
	s.Offer(&rejected)
	if a.Load() != 2 {
		t.Fatal("rejected offer must not notify")
	}
}

// TestSolveTasksMatchesSolve: expanding the frontier once and draining all
// its tasks with SolveTasks must reproduce a local pool run exactly — same
// solution and the same StateNodes/Leaves/Pruned counters — since that
// composition is precisely what a 1-shard distributed run executes.
func TestSolveTasksMatchesSolve(t *testing.T) {
	p := midCircuit(t)
	const penalty, depth = 0.05, 6
	opt := Options{Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1, SplitDepth: depth}

	localOpt := opt
	localOpt.Checkpoint.Path = filepath.Join(t.TempDir(), "local.ckpt")
	localOpt.Checkpoint.Interval = time.Hour
	local, err := p.Solve(context.Background(), localOpt)
	if err != nil {
		t.Fatal(err)
	}

	seed, err := p.SeedSolution(penalty)
	if err != nil {
		t.Fatal(err)
	}
	tasks, expStats, err := p.ExpandFrontier(opt, seed, depth)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) == 0 {
		t.Fatal("frontier is empty — enlarge the circuit")
	}
	zero := *seed
	zero.Stats = SearchStats{}
	tr, err := p.SolveTasks(context.Background(), opt, &zero, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Remaining) != 0 {
		t.Fatalf("uninterrupted drain left %d tasks", len(tr.Remaining))
	}
	if math.Abs(tr.Best.Leak-local.Leak) > 1e-9 {
		t.Errorf("leak %.9f != local %.9f", tr.Best.Leak, local.Leak)
	}
	for i := range local.State {
		if tr.Best.State[i] != local.State[i] {
			t.Fatalf("sleep vectors differ at input %d", i)
		}
	}
	sum := Counters{
		StateNodes: seed.Stats.StateNodes + expStats.StateNodes + tr.Best.Stats.StateNodes,
		Leaves:     seed.Stats.Leaves + tr.Best.Stats.Leaves,
		Pruned:     seed.Stats.Pruned + expStats.Pruned + tr.Best.Stats.Pruned,
	}
	if sum.StateNodes != local.Stats.StateNodes || sum.Leaves != local.Stats.Leaves || sum.Pruned != local.Stats.Pruned {
		t.Errorf("seed+expand+drain counters (%d nodes, %d leaves, %d pruned) != local (%d, %d, %d)",
			sum.StateNodes, sum.Leaves, sum.Pruned,
			local.Stats.StateNodes, local.Stats.Leaves, local.Stats.Pruned)
	}
	if tr.LeavesUsed < tr.Best.Stats.Leaves {
		t.Errorf("budget tickets %d < counted leaves %d", tr.LeavesUsed, tr.Best.Stats.Leaves)
	}
}

// TestSolveTasksChargesTicketsOnStop is the budget-livelock regression: a
// batch stopped by a tiny leaf budget hands on the remainder of its task,
// and must report the tickets it spent, or a coordinator would re-lease
// work without ever spending the budget.
func TestSolveTasksChargesTicketsOnStop(t *testing.T) {
	p := midCircuit(t)
	const penalty, depth = 0.05, 6
	opt := Options{Algorithm: AlgHeuristic2, Penalty: penalty, Workers: 1, SplitDepth: depth}
	seed, err := p.SeedSolution(penalty)
	if err != nil {
		t.Fatal(err)
	}
	tasks, _, err := p.ExpandFrontier(opt, seed, depth)
	if err != nil {
		t.Fatal(err)
	}
	zero := *seed
	zero.Stats = SearchStats{}
	budgeted := opt
	budgeted.MaxLeaves = 1
	tr, err := p.SolveTasks(context.Background(), budgeted, &zero, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Best.Stats.Interrupted {
		t.Fatal("1-leaf budget did not interrupt the drain")
	}
	if len(tr.Remaining) == 0 {
		t.Fatal("interrupted drain reports nothing remaining")
	}
	if tr.LeavesUsed < 1 {
		t.Fatalf("interrupted batch reports %d budget tickets, want >= 1 (budget livelock)", tr.LeavesUsed)
	}
}

func TestSolveTasksValidation(t *testing.T) {
	p := midCircuit(t)
	seed, err := p.SeedSolution(0.05)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Algorithm: AlgHeuristic2, Penalty: 0.05, Workers: 1, SplitDepth: 6}
	ctx := context.Background()
	task := make([]sim.Value, len(p.CC.PI))
	for i := range task {
		task[i] = sim.X
	}

	if _, err := p.SolveTasks(ctx, Options{Algorithm: AlgHeuristic1, Penalty: 0.05}, seed, nil); err == nil {
		t.Error("non-tree algorithm accepted")
	}
	if _, err := p.SolveTasks(ctx, base, nil, nil); err == nil {
		t.Error("nil seed accepted")
	}
	ck := base
	ck.Checkpoint.Path = "x.ckpt"
	if _, err := p.SolveTasks(ctx, ck, seed, nil); err == nil {
		t.Error("checkpointing accepted (the coordinator owns the snapshot)")
	}
	deep := base
	deep.SplitDepth = len(p.CC.PI) + 1
	if _, err := p.SolveTasks(ctx, deep, seed, nil); err == nil {
		t.Error("out-of-range split depth accepted")
	}
	if _, err := p.SolveTasks(ctx, base, seed, [][]sim.Value{task[:1]}); err == nil {
		t.Error("short task vector accepted")
	}
	// An all-X task is the right length but not a depth-6 subtree: searched
	// as one, it would cover a fraction of the tree and still report a
	// complete drain.
	if _, err := p.SolveTasks(ctx, base, seed, [][]sim.Value{task}); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("task with an unassigned prefix: want ErrInvalidOptions, got %v", err)
	}

	// A pre-canceled context returns the seed and the whole batch untouched.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	root := base
	root.SplitDepth = 0
	tr, err := p.SolveTasks(canceled, root, seed, [][]sim.Value{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Remaining) != 1 || !tr.Best.Stats.Interrupted {
		t.Errorf("pre-canceled drain: %d remaining, interrupted %v", len(tr.Remaining), tr.Best.Stats.Interrupted)
	}
}
