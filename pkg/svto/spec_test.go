package svto_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"svto/pkg/svto"
)

// TestRequestJSONRoundTrip pins the wire format: a composed Request must
// survive marshal/unmarshal unchanged, since the same JSON is what the
// daemon decodes on POST /v1/jobs.
func TestRequestJSONRoundTrip(t *testing.T) {
	want := svto.Request{
		Design:  svto.DesignSpec{Bench: tinyBench, Name: "tiny", Fuse: true},
		Library: svto.LibrarySpec{Policy: svto.Lib2Option},
		Search: svto.SearchSpec{
			Algorithm:       svto.Heuristic2,
			Penalty:         0.05,
			TimeLimitSec:    2.5,
			Workers:         1,
			RefinePasses:    2,
			MaxLeaves:       1000,
			Seed:            7,
			BaselineVectors: 100,
		},
		Output: svto.OutputSpec{ReportTop: 10, StandbyBench: true},
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got svto.Request
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the request:\n got %+v\nwant %+v", got, want)
	}
	for _, field := range []string{`"bench"`, `"policy"`, `"algorithm"`, `"time_limit_sec"`, `"report_top"`} {
		if !strings.Contains(string(data), field) {
			t.Errorf("wire JSON missing %s: %s", field, data)
		}
	}
}

func TestValidate(t *testing.T) {
	good := svto.Request{Design: svto.DesignSpec{Bench: tinyBench}}
	if err := svto.Validate(good); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for name, req := range map[string]svto.Request{
		"no source":     {},
		"two sources":   {Design: svto.DesignSpec{Benchmark: "c432", Bench: tinyBench}},
		"bad netlist":   {Design: svto.DesignSpec{Bench: "m1 = FROB(a)"}},
		"bad library":   {Design: svto.DesignSpec{Bench: tinyBench}, Library: svto.LibrarySpec{Policy: "8opt"}},
		"bad algorithm": {Design: svto.DesignSpec{Bench: tinyBench}, Search: svto.SearchSpec{Algorithm: "genetic"}},
	} {
		if err := svto.Validate(req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidateBaselineVectors: the baseline vector count is accepted from 0
// (no baseline) through MaxBaselineVectors and refused outside it.
func TestValidateBaselineVectors(t *testing.T) {
	for n, ok := range map[int]bool{
		-1: false, 0: true, 10000: true,
		svto.MaxBaselineVectors: true, svto.MaxBaselineVectors + 1: false, 2e9: false,
	} {
		req := svto.Request{Design: svto.DesignSpec{Bench: tinyBench}, Search: svto.SearchSpec{BaselineVectors: n}}
		if err := svto.Validate(req); (err == nil) != ok {
			t.Errorf("BaselineVectors %d: Validate error %v, want accepted=%v", n, err, ok)
		}
	}
}

// TestBaselineSharing: a pre-characterized baseline is accepted for
// matching requests and rejected for a different technology.
func TestBaselineSharing(t *testing.T) {
	base, err := svto.NewBaseline(svto.LibrarySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Spec().Key() != string(svto.Lib4Option) {
		t.Errorf("default baseline key = %q", base.Spec().Key())
	}
	req := svto.Request{
		Design: svto.DesignSpec{Bench: tinyBench, Name: "tiny"},
		Search: svto.SearchSpec{Penalty: 0.10},
	}
	res, err := svto.Run(context.Background(), req, svto.RunOptions{Baseline: base})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakNA <= 0 {
		t.Errorf("LeakNA = %g", res.LeakNA)
	}
	req.Library = svto.LibrarySpec{Policy: svto.Lib2Option}
	if _, err := svto.Run(context.Background(), req, svto.RunOptions{Baseline: base}); err == nil {
		t.Error("mismatched baseline accepted")
	}
}

// TestResultJSONCarriesProvenance: the result document exposes degraded-run
// state as first-class fields for daemon clients.
func TestResultJSONCarriesProvenance(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := svto.Run(ctx, svto.Request{
		Design: svto.DesignSpec{Bench: tinyBench, Name: "tiny"},
		Search: svto.SearchSpec{Algorithm: svto.Heuristic2, Penalty: 0.10, Workers: 1, TimeLimitSec: 60},
	}, svto.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("pre-canceled run not marked Interrupted")
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded svto.Result
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Interrupted {
		t.Error("Interrupted lost over JSON")
	}
	if decoded.LeakNA != res.LeakNA || len(decoded.Gates) != len(res.Gates) {
		t.Errorf("result JSON round trip: %+v vs %+v", decoded, res)
	}
}
