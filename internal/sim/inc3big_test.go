package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"svto/internal/gen"
	"svto/internal/netlist"
)

// cache100k holds the compiled ~110k-gate profile: building and compiling
// it takes long enough that doing it once per process matters.
var cache100k struct {
	once sync.Once
	cc   *netlist.Compiled
	err  error
}

func compileCache100k(tb testing.TB) *netlist.Compiled {
	tb.Helper()
	cache100k.once.Do(func() {
		prof, err := gen.ByName("cache100k")
		if err != nil {
			cache100k.err = err
			return
		}
		circ, err := prof.Build()
		if err != nil {
			cache100k.err = err
			return
		}
		cache100k.cc, cache100k.err = circ.Compile()
	})
	if cache100k.err != nil {
		tb.Fatal(cache100k.err)
	}
	return cache100k.cc
}

// TestInc3CacheDatapath100k spot-checks the incremental engine at scale: on
// the ~110k-gate cache/datapath profile, random Assign/Undo walks must keep
// the running bound exactly equal to the Eval3 reference after every step
// and after unwinding to all-X, and net values must match Eval3 on a stride
// of nets at the deepest point of each walk.  (TestInc3MatchesEval3 covers
// the truth tables on small circuits; at this size the point is the wide
// fanout cones and undo trails of a datapath.)
func TestInc3CacheDatapath100k(t *testing.T) {
	cc := compileCache100k(t)
	known, unknown := refBoundTables(cc, 1009)
	eng, err := NewInc3(cc, known, unknown)
	if err != nil {
		t.Fatal(err)
	}

	pi := make([]Value, len(cc.PI))
	for i := range pi {
		pi[i] = X
	}
	type frame struct {
		idx int
		old Value
	}
	var stack []frame
	check := func(op string) {
		t.Helper()
		want := refBound(t, cc, pi, known, unknown)
		if got, _ := eng.Bounds(); got != want {
			t.Fatalf("%s: bound %v != reference %v (depth %d)", op, got, want, eng.Depth())
		}
	}
	undo := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pi[f.idx] = f.old
		eng.Undo()
	}

	rng := rand.New(rand.NewSource(41))
	for walk := 0; walk < 2; walk++ {
		for step := 0; step < 16; step++ {
			if len(stack) > 0 && rng.Intn(4) == 0 {
				undo()
				check(fmt.Sprintf("walk %d step %d undo", walk, step))
				continue
			}
			idx := rng.Intn(len(pi))
			v := Value(rng.Intn(3)) // False, True or X — reassignments included
			stack = append(stack, frame{idx, pi[idx]})
			pi[idx] = v
			eng.Assign(idx, v)
			check(fmt.Sprintf("walk %d step %d assign", walk, step))
		}
		vals, err := Eval3(cc, pi)
		if err != nil {
			t.Fatal(err)
		}
		for net := walk; net < len(vals); net += 13 {
			if got := eng.Val(net); got != vals[net] {
				t.Fatalf("walk %d net %d: %v != eval3 %v", walk, net, got, vals[net])
			}
		}
		for len(stack) > 0 {
			undo()
		}
		check(fmt.Sprintf("walk %d unwound", walk))
		if eng.Depth() != 0 {
			t.Fatalf("walk %d: depth %d after full unwind", walk, eng.Depth())
		}
	}
}
