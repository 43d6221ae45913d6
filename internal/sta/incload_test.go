package sta

import (
	"math/rand"
	"testing"

	"svto/internal/gen"
	"svto/internal/library"
)

// randomTimer builds a timer over a deterministic random-logic block large
// enough for version changes to overlap fan-out cones.
func randomTimer(t *testing.T) *Timer {
	t.Helper()
	circ, err := gen.RandomLogic("incload", 17, 16, 120)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := circ.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return newTimer(t, cc)
}

// randomChoice picks a random valid choice for a random gate.
func randomChoice(rng *rand.Rand, tm *Timer) (int, *library.Choice) {
	gi := rng.Intn(len(tm.CC.Gates))
	cell := tm.Cells[gi]
	st := uint(rng.Intn(cell.Template.NumStates()))
	chs := cell.Choices[st]
	return gi, &chs[rng.Intn(len(chs))]
}

// The cached per-net loads must stay bit-for-bit equal to a from-scratch
// rescan after arbitrary SetChoice sequences: SetChoice refreshes exactly
// the nets whose reader pin caps changed, and recomputeLoad is the
// canonical summation both paths share.
func TestNetLoadMatchesRescan(t *testing.T) {
	tm := randomTimer(t)
	state, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for step := 0; step < 200; step++ {
		gi, ch := randomChoice(rng, tm)
		state.SetChoice(gi, ch)
		for net := 0; net < tm.CC.NumNets(); net++ {
			if got, want := state.Load(net), state.recomputeLoad(net); got != want {
				t.Fatalf("step %d: net %d cached load %v != rescan %v", step, net, got, want)
			}
		}
	}
}

// Clone and CopyFrom must carry the cached loads: a clone re-timed on its
// own never disturbs the original, and CopyFrom restores every timing and
// load word bitwise.
func TestCloneCopyFromCarryLoads(t *testing.T) {
	tm := randomTimer(t)
	base, err := tm.NewState(tm.FastChoices())
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]netTiming(nil), base.net...)
	clone := base.Clone()
	rng := rand.New(rand.NewSource(31))
	for step := 0; step < 50; step++ {
		gi, ch := randomChoice(rng, tm)
		clone.SetChoice(gi, ch)
	}
	for net, want := range snapshot {
		if base.net[net].load != want.load {
			t.Fatalf("net %d: base load disturbed by clone edits: %v != %v", net, base.net[net].load, want.load)
		}
		if clone.net[net].load != clone.recomputeLoad(net) {
			t.Fatalf("net %d: clone cached load %v != rescan %v", net, clone.net[net].load, clone.recomputeLoad(net))
		}
	}
	clone.CopyFrom(base)
	for net, want := range snapshot {
		if clone.net[net].load != want.load {
			t.Fatalf("net %d: CopyFrom load %v != base %v", net, clone.net[net].load, want.load)
		}
	}
	if clone.Delay() != base.Delay() {
		t.Fatalf("CopyFrom delay %v != base %v", clone.Delay(), base.Delay())
	}
}
