package svto

import (
	"fmt"
	"strings"
	"time"

	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/tech"
	"svto/internal/verilog"
)

// Request is one complete optimization job: what to optimize (DesignSpec),
// against which standby cell library (LibrarySpec), how to search it
// (SearchSpec) and which artifacts to shape (OutputSpec).  It is both the
// argument of [Run] and the wire format the leakoptd daemon accepts on
// POST /v1/jobs, so a client-side Request marshals to exactly the JSON the
// server decodes.
type Request struct {
	Design  DesignSpec  `json:"design"`
	Library LibrarySpec `json:"library,omitempty"`
	Search  SearchSpec  `json:"search,omitempty"`
	Output  OutputSpec  `json:"output,omitempty"`
}

// Validate rejects a Request that could never run: no (or ambiguous)
// design source, an unparsable netlist, an unknown library policy or
// algorithm, a BaselineVectors count CheckBaselineVectors refuses, or
// search options core rejects (a negative budget or count).
// Serving layers call it at submission so a malformed job fails at the API
// boundary instead of minutes later in a worker.
func Validate(req Request) error {
	if _, err := req.Design.load(); err != nil {
		return err
	}
	if _, err := req.Library.options(); err != nil {
		return err
	}
	opt, err := coreOptions(req)
	if err != nil {
		return err
	}
	return opt.Validate()
}

// DesignSpec selects the circuit.  Exactly one of Benchmark, Bench or
// Verilog must be set; Bench and Verilog carry the netlist inline as text
// so the spec is self-contained on the wire.
type DesignSpec struct {
	// Benchmark names a built-in benchmark profile (c432..c7552, alu64).
	Benchmark string `json:"benchmark,omitempty"`
	// Bench is an ISCAS-85 .bench netlist, inline.
	Bench string `json:"bench,omitempty"`
	// Verilog is a gate-level structural Verilog netlist, inline.
	Verilog string `json:"verilog,omitempty"`
	// Name labels the design when read from Bench or Verilog.
	Name string `json:"name,omitempty"`
	// Fuse runs the AOI/OAI peephole fusion pass before optimizing.
	Fuse bool `json:"fuse,omitempty"`
}

// load resolves the spec into a circuit.
func (d DesignSpec) load() (*netlist.Circuit, error) {
	sources := 0
	for _, set := range []bool{d.Benchmark != "", d.Bench != "", d.Verilog != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("svto: set exactly one of Benchmark, Bench or Verilog (got %d)", sources)
	}
	name := d.Name
	if name == "" {
		name = "design"
	}
	switch {
	case d.Benchmark != "":
		prof, err := gen.ByName(d.Benchmark)
		if err != nil {
			return nil, err
		}
		return prof.Build()
	case d.Bench != "":
		return netlist.ReadBench(strings.NewReader(d.Bench), name)
	default:
		return verilog.Read(strings.NewReader(d.Verilog), name)
	}
}

// LibrarySpec names the standby cell-library construction policy.  Two
// requests with the same spec share one characterized library (see
// [Baseline]); the spec is deliberately small so its Key can serve as the
// sharing fingerprint.
type LibrarySpec struct {
	// Policy defaults to Lib4Option.
	Policy Library `json:"policy,omitempty"`
}

// Key is the canonical fingerprint of the spec: two specs with equal keys
// build byte-identical libraries, so serving layers key their shared
// baseline cache on it.
func (l LibrarySpec) Key() string {
	if l.Policy == "" {
		return string(Lib4Option)
	}
	return string(l.Policy)
}

// options resolves the policy into build options.
func (l LibrarySpec) options() (library.Options, error) {
	return LibraryOptions(l.Policy)
}

// SearchSpec configures the search: algorithm, delay budget, and the
// per-job worker/time/leaf budgets a serving layer clamps.
type SearchSpec struct {
	// Algorithm defaults to Heuristic1.
	Algorithm Algorithm `json:"algorithm,omitempty"`
	// Penalty is the delay-penalty fraction (0.05 = 5%).
	Penalty float64 `json:"penalty,omitempty"`
	// TimeLimitSec bounds the search wall clock in seconds; 0 means no
	// limit beyond the context's deadline.  Seconds (not a Duration) keep
	// the wire format language-neutral.
	TimeLimitSec float64 `json:"time_limit_sec,omitempty"`
	// Workers is the parallel search width; 0 uses all CPUs, 1 is the
	// deterministic sequential search.
	Workers int `json:"workers,omitempty"`
	// RefinePasses > 0 adds iterated gate-refinement passes.
	RefinePasses int `json:"refine_passes,omitempty"`
	// MaxLeaves bounds the number of complete states evaluated; 0 means
	// unlimited.  The budget spans resumed runs.  It counts leaves, not
	// work: the state-tree nodes between two leaves are unbounded, so set
	// TimeLimitSec too when the run must end in bounded time.
	MaxLeaves int64 `json:"max_leaves,omitempty"`
	// Seed draws the random baseline vectors (BaselineVectors); 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// BaselineVectors, when > 0, estimates the unoptimized average leakage
	// over that many random vectors (Result.BaselineNA, ReductionX).  It
	// may not be negative or exceed MaxBaselineVectors.
	BaselineVectors int `json:"baseline_vectors,omitempty"`
}

// MaxBaselineVectors caps SearchSpec.BaselineVectors at 100× the paper's
// 10,000-vector average, so one request cannot occupy a worker for hours.
const MaxBaselineVectors = 1_000_000

// CheckBaselineVectors accepts a random-vector count for the baseline
// average: 0 (no baseline) through MaxBaselineVectors.  Validate applies
// it to SearchSpec.BaselineVectors, and leakopt to its -vectors flag.
func CheckBaselineVectors(n int) error {
	if n < 0 || n > MaxBaselineVectors {
		return fmt.Errorf("svto: baseline vectors %d outside 0..%d", n, MaxBaselineVectors)
	}
	return nil
}

// TimeLimit converts TimeLimitSec to a Duration.
func (s SearchSpec) TimeLimit() time.Duration {
	return time.Duration(s.TimeLimitSec * float64(time.Second))
}

// OutputSpec shapes the artifacts a serving layer renders from the result.
// It does not affect the search itself.
type OutputSpec struct {
	// ReportTop is the number of gates the human-readable report lists
	// (0 lists every gate).
	ReportTop int `json:"report_top,omitempty"`
	// StandbyBench additionally emits the circuit wrapped with the
	// sleep-vector forcing logic in .bench format.
	StandbyBench bool `json:"standby_bench,omitempty"`
}

// Baseline is one characterized standby cell library, immutable after
// construction and safe to share between concurrent [Run] calls.  Serving
// layers build one Baseline per LibrarySpec.Key and reuse it across every
// job on that technology instead of re-characterizing per request.
type Baseline struct {
	spec LibrarySpec
	lib  *library.Library
}

// NewBaseline characterizes the standby library for the given spec.
func NewBaseline(spec LibrarySpec) (*Baseline, error) {
	opt, err := spec.options()
	if err != nil {
		return nil, err
	}
	lib, err := library.Cached(tech.Default(), opt)
	if err != nil {
		return nil, err
	}
	return &Baseline{spec: spec, lib: lib}, nil
}

// Spec returns the library spec this baseline was characterized for.
func (b *Baseline) Spec() LibrarySpec { return b.spec }

// libraryFor returns the library to use for req: the shared baseline when
// one was provided (rejecting a mismatched technology), else a fresh (but
// process-cached) characterization.
func libraryFor(req Request, base *Baseline) (*library.Library, error) {
	if base != nil {
		if base.spec.Key() != req.Library.Key() {
			return nil, fmt.Errorf("svto: baseline characterized for library %q, request wants %q",
				base.spec.Key(), req.Library.Key())
		}
		return base.lib, nil
	}
	opt, err := req.Library.options()
	if err != nil {
		return nil, err
	}
	return library.Cached(tech.Default(), opt)
}
