package core

import (
	"math"
	"testing"

	"svto/internal/library"
)

// TestWorkers1BitsPinned pins what a Workers=1 search returns on three
// paper-scale solves: the objective bits (the constants perfbench/refs.go
// checks under the same keys), the delay bits and the work counters.  A
// Workers=1 search is deterministic, so any drift in timing, ordering or
// pruning that changes the answer or the work shows here, in the main
// module's own test run.
func TestWorkers1BitsPinned(t *testing.T) {
	cases := []struct {
		key      string // perfbench/refs.go key
		circuit  string
		opt      Options
		leak     uint64
		delay    uint64
		counters [3]int64 // StateNodes, Leaves, GateTrials
	}{
		{"c432/heuristic1/0.05/0", "c432", Options{Algorithm: AlgHeuristic1, Penalty: 0.05},
			0x40a963f094c15aae, 0x40a8d4f7283b1bec, [3]int64{36, 1, 206}},
		{"c880/heuristic1/0.05/0", "c880", Options{Algorithm: AlgHeuristic1, Penalty: 0.05},
			0x40bf51bc5427ae42, 0x40b2951cb6a7b67d, [3]int64{60, 1, 420}},
		{"c432/heuristic2/0.05/300", "c432", Options{Algorithm: AlgHeuristic2, Penalty: 0.05, MaxLeaves: 300},
			0x40a963f094c15aae, 0x40a8d4f7283b1bec, [3]int64{368, 301, 62350}},
	}
	for _, tc := range cases {
		t.Run(tc.key, func(t *testing.T) {
			p := newProblem(t, mustBenchmark(t, tc.circuit), library.DefaultOptions(), ObjTotal)
			sol, err := solve1(p, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]int64{sol.Stats.StateNodes, sol.Stats.Leaves, sol.Stats.GateTrials}
			if b := math.Float64bits(sol.Leak); b != tc.leak {
				t.Errorf("objective %v (bits %#x), want bits %#x", sol.Leak, b, tc.leak)
			}
			if b := math.Float64bits(sol.Delay); b != tc.delay {
				t.Errorf("delay %v (bits %#x), want bits %#x", sol.Delay, b, tc.delay)
			}
			if got != tc.counters {
				t.Errorf("StateNodes, Leaves, GateTrials = %v, want %v", got, tc.counters)
			}
		})
	}
}
