package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"svto/internal/jobs"
	"svto/internal/netlist"
	"svto/internal/seq"
	"svto/internal/techmap"
	"svto/internal/verilog"
	"svto/pkg/svto"
)

// TestLibraryOptions: every policy the -library flag advertises resolves
// through svto.LibraryOptions, the parser the CLI shares with requests.
func TestLibraryOptions(t *testing.T) {
	cases := []struct {
		name    string
		points  int
		uniform bool
	}{
		{"4opt", 4, false},
		{"2opt", 2, false},
		{"4opt-uniform", 4, true},
		{"2opt-uniform", 2, true},
	}
	for _, tc := range cases {
		opt, err := svto.LibraryOptions(svto.Library(tc.name))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if opt.TradeoffPoints != tc.points || opt.UniformStack != tc.uniform {
			t.Errorf("%s: got %+v", tc.name, opt)
		}
		if err := opt.Validate(); err != nil {
			t.Errorf("%s: invalid options: %v", tc.name, err)
		}
	}
	if _, err := svto.LibraryOptions("frob"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// andOr is an unmapped ISCAS-85-style netlist: wide AND/OR gates the
// library has no cell for, so it only optimizes after technology mapping.
const andOr = `INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
OUTPUT(z)
t = AND(a, b, c)
u = OR(a, c)
n = NOT(b)
y = OR(t, n)
z = AND(u, n, t)
`

// toggler is a small sequential design: a 3-bit state machine with an
// enable and a clear, one flip-flop output doubling as the primary output.
const toggler = `INPUT(en)
INPUT(clr)
OUTPUT(q2)
q0 = DFF(d0)
q1 = DFF(d1)
q2 = DFF(d2)
nclr = NOT(clr)
t0 = XOR(q0, en)
d0 = AND(t0, nclr)
c0 = AND(q0, en)
t1 = XOR(q1, c0)
d1 = AND(t1, nclr)
c1 = AND(q1, c0)
t2 = XOR(q2, c1)
d2 = AND(t2, nclr)
`

func writeTemp(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLocalMatchesRequest: a local run solves exactly the request
// buildRequest returns for the same flags — equal objective bits, sleep
// vector and random-vector reference as svto.Run of that request, the
// daemon's execution path.
func TestLocalMatchesRequest(t *testing.T) {
	// cmp8 has AOI/OAI fusion opportunities (110 -> 90 gates).
	bench, err := os.ReadFile("../../examples/fullflow/cmp8.bench")
	if err != nil {
		t.Fatal(err)
	}
	cmp8, err := netlist.ReadBench(bytes.NewReader(bench), "cmp8")
	if err != nil {
		t.Fatal(err)
	}
	var v strings.Builder
	if err := verilog.Write(&v, cmp8); err != nil {
		t.Fatal(err)
	}
	seqFile := writeTemp(t, "toggler.bench", toggler)
	cases := []struct {
		name string
		args []string
	}{
		{"unmapped-bench", []string{"-in", writeTemp(t, "andor.bench", andOr)}},
		{"c432-1000-vectors", []string{"-bench", "c432", "-vectors", "1000"}},
		{"fused-verilog", []string{"-in", writeTemp(t, "cmp8.v", v.String()), "-fuse", "-vectors", "500"}},
		{"seq", []string{"-in", seqFile, "-seq", "-vectors", "500"}},
		// compare returns its heuristic2 result, quoted against the one
		// baseline its first solve computed.
		{"compare", []string{"-bench", "c432", "-method", "compare", "-max-leaves", "50", "-vectors", "500"}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := parseFlags(tc.args)
			var out bytes.Buffer
			got, err := run(ctx, &out, o)
			if err != nil {
				t.Fatalf("local run: %v", err)
			}
			req, _, err := buildRequest(o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := svto.Run(ctx, req, svto.RunOptions{})
			if err != nil {
				t.Fatalf("svto.Run: %v", err)
			}
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"LeakNA", got.LeakNA, want.LeakNA},
				{"IsubNA", got.IsubNA, want.IsubNA},
				{"DelayPS", got.DelayPS, want.DelayPS},
				{"BaselineNA", got.BaselineNA, want.BaselineNA},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s: local %v, request %v", f.name, f.got, f.want)
				}
			}
			if !slices.Equal(got.SleepVector, want.SleepVector) {
				t.Errorf("sleep vector: local %v, request %v", got.SleepVector, want.SleepVector)
			}
			if want.BaselineNA == 0 || strings.Count(out.String(), "average leakage over ") != 1 {
				t.Errorf("no reference average (%v) in:\n%s", want.BaselineNA, out.String())
			}
		})
	}

	// The -seq request inlines the combinational cut as .bench text; once
	// compiled it is the circuit techmap.Map makes of the cut directly.
	o := parseFlags([]string{"-in", seqFile, "-seq"})
	req, cut, err := buildRequest(o)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := svto.Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(seqFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	direct, err := seq.ReadBench(f, "toggler")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := techmap.Map(direct.Comb)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comp.Circ, mapped) {
		t.Errorf("compiled -seq cut differs from the directly mapped cut:\n%v\n%v", comp.Circ, mapped)
	}
	if !reflect.DeepEqual(cut, direct) {
		t.Errorf("buildRequest cut %+v, want %+v", cut, direct)
	}
}

// TestLoadCircuit: every design source the CLI accepts — a named
// benchmark, a .bench file, a structural Verilog file — compiles through
// the request buildRequest makes, and a run with no source, two sources, a
// missing file or an unknown benchmark is refused.
func TestLoadCircuit(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"-bench", "c432", "-in", writeTemp(t, "t.bench", andOr)},
		{"-in", filepath.Join(dir, "missing.bench")},
	} {
		if _, _, err := buildRequest(parseFlags(args)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	load := func(args ...string) (*netlist.Circuit, error) {
		req, _, err := buildRequest(parseFlags(args))
		if err != nil {
			return nil, err
		}
		comp, err := svto.Compile(req, nil)
		if err != nil {
			return nil, err
		}
		return comp.Circ, nil
	}
	if _, err := load("-bench", "c9999"); err == nil || !strings.Contains(err.Error(), "c9999") {
		t.Errorf("unknown benchmark: got error %v", err)
	}
	c, err := load("-bench", "c432")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 177 {
		t.Errorf("c432 gates = %d", len(c.Gates))
	}
	bench := writeTemp(t, "t.bench", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n")
	if c, err := load("-in", bench); err != nil || len(c.Gates) != 1 {
		t.Errorf("bench load failed: %v", err)
	}
	v := writeTemp(t, "t.v", "module t (a, y); input a; output y; not u (y, a); endmodule\n")
	if c, err := load("-in", v); err != nil || len(c.Gates) != 1 {
		t.Errorf("verilog load failed: %v", err)
	}
}

// TestReferenceAverage: -vectors N prints the request's random-vector
// baseline — the average leakage of N vectors from the request's seed —
// -vectors 0 prints no reference, and counts out of range are refused.
func TestReferenceAverage(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	res, err := run(ctx, &out, parseFlags([]string{"-bench", "c432", "-vectors", "0"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineNA != 0 || strings.Contains(out.String(), "average leakage") {
		t.Errorf("-vectors 0: baseline %v, printed:\n%s", res.BaselineNA, out.String())
	}

	o := parseFlags([]string{"-bench", "c432", "-vectors", "100"})
	req, _, err := buildRequest(o)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := svto.Compile(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := comp.Prob.AverageRandomLeak(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	res, err = run(ctx, &out, o)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineNA != want {
		t.Errorf("100 vectors: baseline %v, want %v", res.BaselineNA, want)
	}
	if !strings.Contains(out.String(), "average leakage over 100 random vectors: ") {
		t.Errorf("100 vectors printed:\n%s", out.String())
	}

	for _, n := range []int{-1, svto.MaxBaselineVectors + 1} {
		if err := svto.CheckBaselineVectors(n); err == nil {
			t.Errorf("-vectors %d accepted", n)
		}
		if _, _, err := buildRequest(parseFlags([]string{"-bench", "c432", "-vectors", strconv.Itoa(n)})); err == nil {
			t.Errorf("-vectors %d accepted by buildRequest", n)
		}
	}
}

// TestBuildRequest: flag combinations no run can serve are refused before
// any solve, and each -method maps to the request's algorithm and limit.
func TestBuildRequest(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-bench", "c432", "-method", "frob"},
		{"-bench", "c432", "-seq"},
	} {
		if _, _, err := buildRequest(parseFlags(args)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// core.Options.Validate refuses the checkpoint misuses.
	ctx := context.Background()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "c432", "-resume"}, "Resume without Checkpoint.Path"},
		{[]string{"-bench", "c432", "-checkpoint", filepath.Join(dir, "h1.ckpt")}, "requires a tree search"},
		{[]string{"-bench", "c432", "-method", "compare", "-checkpoint", filepath.Join(dir, "cmp.ckpt")}, "requires a tree search"},
	} {
		if _, err := run(ctx, io.Discard, parseFlags(tc.args)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got error %v, want one naming %q", tc.args, err, tc.want)
		}
	}
	for _, tc := range []struct {
		method string
		alg    svto.Algorithm
		limit  float64
	}{
		{"heu1", svto.Heuristic1, 0},
		{"heu2", svto.Heuristic2, 5},
		{"exact", svto.Exact, 0},
		{"compare", svto.Heuristic2, 5},
		{"vt-state", svto.Heuristic1, 0},
	} {
		req, _, err := buildRequest(parseFlags([]string{"-bench", "c432", "-method", tc.method}))
		if err != nil {
			t.Fatal(err)
		}
		if req.Search.Algorithm != tc.alg || req.Search.TimeLimitSec != tc.limit {
			t.Errorf("-method %s: algorithm %q, limit %v", tc.method, req.Search.Algorithm, req.Search.TimeLimitSec)
		}
		if err := svto.Validate(req); err != nil {
			t.Errorf("-method %s: %v", tc.method, err)
		}
	}
}

// TestSubmitPrintsReport: -submit with -report N prints the table the
// daemon rendered as the job's report artifact, after the result line.
func TestSubmitPrintsReport(t *testing.T) {
	const table = "top 3 gates by leakage\n  g1 12.5 nA\n"
	doc, err := json.Marshal(svto.Result{LeakNA: 1234, DelayPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	done := jobs.View{Record: jobs.Record{ID: "j1", Status: jobs.StatusDone}, Result: doc}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(done)
	})
	mux.HandleFunc("GET /v1/jobs/j1/artifacts/report", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, table)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	o := parseFlags([]string{"-bench", "c432", "-vectors", "0", "-submit", srv.URL, "-report", "3"})
	req, cut, err := buildRequest(o)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := submit(context.Background(), &out, o, req, cut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	result := strings.Index(got, "heuristic1")
	report := strings.Index(got, table)
	if !strings.HasPrefix(got, "submitted job j1 (done)\n") || result < 0 || report < result {
		t.Errorf("submit printed:\n%s\nwant the result line, then the report artifact:\n%s", got, table)
	}
}
