package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/sta"
	"svto/internal/tech"
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

func TestLoadCircuit(t *testing.T) {
	if _, err := loadCircuit("", ""); err == nil {
		t.Error("no source accepted")
	}
	if _, err := loadCircuit("c432", "x.bench"); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := loadCircuit("c9999", ""); err == nil {
		t.Error("unknown benchmark accepted")
	}
	c, err := loadCircuit("c432", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Gates) != 177 {
		t.Errorf("c432 gates = %d", len(c.Gates))
	}

	dir := t.TempDir()
	bench := filepath.Join(dir, "t.bench")
	if err := os.WriteFile(bench, []byte("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := loadCircuit("", bench); err != nil || len(c.Gates) != 1 {
		t.Errorf("bench load failed: %v", err)
	}
	v := filepath.Join(dir, "t.v")
	src := "module t (a, y); input a; output y; not u (y, a); endmodule\n"
	if err := os.WriteFile(v, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := loadCircuit("", v); err != nil || len(c.Gates) != 1 {
		t.Errorf("verilog load failed: %v", err)
	}
	if _, err := loadCircuit("", filepath.Join(dir, "missing.bench")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReferenceAverage: -vectors 0 means no reference, as BaselineVectors 0
// means with -submit, and a positive count prints the seed-2004 average the
// run's reduction factors divide.  Counts outside 0..MaxBaselineVectors are
// refused by the rule the daemon applies to BaselineVectors.
func TestReferenceAverage(t *testing.T) {
	circ, err := loadCircuit("c432", "")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := library.Cached(tech.Default(), library.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if avg, err := referenceAverage(&out, p, 0); err != nil || avg != 0 || out.Len() != 0 {
		t.Errorf("0 vectors: avg %v, err %v, printed %q", avg, err, out.String())
	}
	want, err := p.AverageRandomLeak(2004, 100)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := referenceAverage(&out, p, 100)
	if err != nil || avg != want {
		t.Errorf("100 vectors: avg %v (err %v), want %v", avg, err, want)
	}
	if !strings.HasPrefix(out.String(), "average leakage over 100 random vectors: ") {
		t.Errorf("100 vectors printed %q", out.String())
	}
	for _, n := range []int{-1, svto.MaxBaselineVectors + 1} {
		if err := svto.CheckBaselineVectors(n); err == nil {
			t.Errorf("-vectors %d accepted", n)
		}
		req, err := buildRequest("c432", "", "heuristic1", "4opt", 5, 0, 1, 0, n, 0, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := svto.Validate(req); err == nil {
			t.Errorf("-submit with -vectors %d accepted", n)
		}
	}
}
