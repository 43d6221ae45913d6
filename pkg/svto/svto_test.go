package svto_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svto/internal/netlist"
	"svto/pkg/svto"
)

const tinyBench = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOR(b, c)
n3 = NOT(n1)
y = NAND(n3, n2)
`

func optimizeTiny(t *testing.T, search svto.SearchSpec, opts svto.RunOptions) *svto.Result {
	t.Helper()
	req := svto.Request{Design: svto.DesignSpec{Bench: tinyBench, Name: "tiny"}, Search: search}
	res, err := svto.Run(context.Background(), req, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestOptimizeBench(t *testing.T) {
	res := optimizeTiny(t, svto.SearchSpec{Penalty: 0.10, BaselineVectors: 500, Seed: 7}, svto.RunOptions{})
	if res.Design != "tiny" {
		t.Errorf("Design = %q, want tiny", res.Design)
	}
	if len(res.Inputs) != 3 || len(res.SleepVector) != 3 {
		t.Fatalf("inputs/sleep vector = %d/%d, want 3/3", len(res.Inputs), len(res.SleepVector))
	}
	if len(res.Gates) == 0 {
		t.Fatal("no gate assignments")
	}
	if res.LeakNA <= 0 || res.IsubNA <= 0 || res.IsubNA > res.LeakNA {
		t.Errorf("leakage breakdown LeakNA=%g IsubNA=%g", res.LeakNA, res.IsubNA)
	}
	if math.Abs(res.LeakNA-res.IsubNA-res.IgateNA) > 1e-9 {
		t.Errorf("IgateNA=%g not Leak-Isub", res.IgateNA)
	}
	if res.DelayPS > res.BudgetPS+1e-9 {
		t.Errorf("delay %g exceeds budget %g", res.DelayPS, res.BudgetPS)
	}
	if res.DminPS > res.DelayPS+1e-9 || res.BudgetPS > res.DmaxPS+1e-9 {
		t.Errorf("delay anchors inconsistent: Dmin=%g Delay=%g Budget=%g Dmax=%g",
			res.DminPS, res.DelayPS, res.BudgetPS, res.DmaxPS)
	}
	if res.BaselineNA <= 0 || res.ReductionX() <= 0 {
		t.Errorf("baseline %g, reduction %g", res.BaselineNA, res.ReductionX())
	}
	for _, g := range res.Gates {
		if g.Gate == "" || g.Cell == "" || g.Version == "" || g.Kind == "" {
			t.Fatalf("incomplete gate assignment %+v", g)
		}
	}
}

func TestOptimizeAlgorithms(t *testing.T) {
	h1 := optimizeTiny(t, svto.SearchSpec{Penalty: 0.10}, svto.RunOptions{})
	for _, alg := range []svto.Algorithm{svto.Heuristic2, svto.Exact, svto.StateOnly} {
		res := optimizeTiny(t, svto.SearchSpec{Algorithm: alg, Penalty: 0.10}, svto.RunOptions{})
		if res.LeakNA <= 0 {
			t.Errorf("%s: LeakNA = %g", alg, res.LeakNA)
		}
		if alg != svto.StateOnly && res.LeakNA > h1.LeakNA+1e-9 {
			t.Errorf("%s leak %g worse than heuristic1 %g", alg, res.LeakNA, h1.LeakNA)
		}
	}
}

func TestOptimizeBenchmarkName(t *testing.T) {
	res, err := svto.Run(context.Background(), svto.Request{
		Design: svto.DesignSpec{Benchmark: "c432"},
		Search: svto.SearchSpec{Penalty: 0.05},
	}, svto.RunOptions{})
	if err != nil {
		t.Fatalf("Run(c432): %v", err)
	}
	if res.Design != "c432" || len(res.Inputs) != 36 {
		t.Errorf("got design %q with %d inputs", res.Design, len(res.Inputs))
	}
}

func TestOptimizeProgress(t *testing.T) {
	var calls int
	var last svto.Progress
	res := optimizeTiny(t, svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.10}, svto.RunOptions{
		Progress: func(p svto.Progress) {
			calls++
			last = p
		},
	})
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if last.BestLeakNA != res.LeakNA {
		t.Errorf("final progress leak %g != result %g", last.BestLeakNA, res.LeakNA)
	}
	if last.Leaves != res.Stats.Leaves {
		t.Errorf("final progress leaves %d != stats %d", last.Leaves, res.Stats.Leaves)
	}
}

func TestOptimizeValidation(t *testing.T) {
	ctx := context.Background()
	tiny := svto.DesignSpec{Bench: tinyBench}
	cases := []struct {
		name string
		req  svto.Request
		opts svto.RunOptions
	}{
		{"no source", svto.Request{}, svto.RunOptions{}},
		{"two sources", svto.Request{Design: svto.DesignSpec{Benchmark: "c432", Bench: tinyBench}}, svto.RunOptions{}},
		{"bad algorithm", svto.Request{Design: tiny, Search: svto.SearchSpec{Algorithm: "simulated-annealing"}}, svto.RunOptions{}},
		{"bad library", svto.Request{Design: tiny, Library: svto.LibrarySpec{Policy: "8opt"}}, svto.RunOptions{}},
		{"bad benchmark", svto.Request{Design: svto.DesignSpec{Benchmark: "c99999"}}, svto.RunOptions{}},
		{"negative workers", svto.Request{Design: tiny, Search: svto.SearchSpec{Workers: -2}}, svto.RunOptions{}},
		{"negative max leaves", svto.Request{Design: tiny, Search: svto.SearchSpec{MaxLeaves: -1}}, svto.RunOptions{}},
		{"resume without path",
			svto.Request{Design: tiny, Search: svto.SearchSpec{Algorithm: svto.Heuristic2}},
			svto.RunOptions{Checkpoint: svto.Checkpoint{Resume: true}}},
		{"checkpoint with non-tree algorithm",
			svto.Request{Design: tiny},
			svto.RunOptions{Checkpoint: svto.Checkpoint{Path: "x.ckpt"}}},
	}
	for _, tc := range cases {
		if _, err := svto.Run(ctx, tc.req, tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestOptimizeCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.ckpt")
	full := optimizeTiny(t, svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.10}, svto.RunOptions{})

	cut := optimizeTiny(t,
		svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.10, Workers: 1, MaxLeaves: 1},
		svto.RunOptions{Checkpoint: svto.Checkpoint{Path: path}})
	if !cut.Stats.Interrupted {
		t.Fatal("leaf budget did not interrupt the run")
	}
	if cut.Stats.CheckpointWrites == 0 {
		t.Error("interrupted run wrote no checkpoint")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no snapshot on disk: %v", err)
	}

	res := optimizeTiny(t,
		svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.10, Workers: 1},
		svto.RunOptions{Checkpoint: svto.Checkpoint{Path: path, Resume: true}})
	if res.Stats.Interrupted {
		t.Error("resumed run did not finish")
	}
	if res.LeakNA != full.LeakNA {
		t.Errorf("resumed leak %g != uninterrupted %g", res.LeakNA, full.LeakNA)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("completed run left its checkpoint behind (stat: %v)", err)
	}
}

func TestResultExports(t *testing.T) {
	res := optimizeTiny(t, svto.SearchSpec{Penalty: 0.10}, svto.RunOptions{})

	report, err := res.Report(3)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if !strings.Contains(report, "tiny") {
		t.Errorf("report does not mention the design:\n%s", report)
	}

	var csv strings.Builder
	if err := res.WritePowerCSV(&csv); err != nil {
		t.Fatalf("WritePowerCSV: %v", err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines < len(res.Gates) {
		t.Errorf("CSV has %d lines for %d gates", lines, len(res.Gates))
	}

	var wrapped strings.Builder
	if err := res.WriteStandbyBench(&wrapped); err != nil {
		t.Fatalf("WriteStandbyBench: %v", err)
	}
	reread, err := netlist.ReadBench(strings.NewReader(wrapped.String()), "reread")
	if err != nil {
		t.Fatalf("standby bench does not re-parse: %v", err)
	}
	// One SLEEP input added; a MUX per primary input.
	if len(reread.Inputs) != len(res.Inputs)+1 {
		t.Errorf("wrapped inputs = %d, want %d", len(reread.Inputs), len(res.Inputs)+1)
	}

	var vl strings.Builder
	if err := res.WriteVerilog(&vl); err != nil {
		t.Fatalf("WriteVerilog: %v", err)
	}
	if !strings.Contains(vl.String(), "module") {
		t.Error("verilog output missing module header")
	}

	var lib strings.Builder
	if err := res.WriteLiberty(&lib); err != nil {
		t.Fatalf("WriteLiberty: %v", err)
	}
	if !strings.Contains(lib.String(), "library") {
		t.Error("liberty output missing library group")
	}
}
