// Command leakopt computes a standby-mode sleep vector and per-gate Vt/Tox
// cell-version assignment for a combinational circuit, minimizing total
// standby leakage under a delay constraint (the paper's core flow).
//
// Usage:
//
//	leakopt -bench c880 -penalty 5 -method heu2 -heu2sec 5 -workers 4
//	leakopt -in mydesign.bench -penalty 10 -method heu1 -show-vector
//	leakopt -bench c432 -method compare -timing -mc 2000
//	leakopt -bench c880 -method heu2 -checkpoint c880.ckpt
//	leakopt -bench c880 -method heu2 -checkpoint c880.ckpt -resume
//
// Every run builds the svto.Request that -submit would post and solves it
// in-process, so a local run and a daemon job quote the same result.
// Ctrl-C interrupts a running search and reports the best solution found
// so far.  With -checkpoint the interrupted (or killed and restarted)
// search also leaves a crash-safe snapshot behind that -resume continues
// from.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"svto/internal/core"
	"svto/internal/library"
	"svto/internal/seq"
	"svto/internal/sta"
	"svto/internal/tech"
	"svto/internal/variation"
	"svto/pkg/svto"
)

// options is the parsed command line.
type options struct {
	bench, in, method, library string
	penalty, heu2sec           float64
	workers                    int
	maxLeaves                  int64
	ckPath                     string
	ckEvery                    time.Duration
	resume                     bool
	progress                   time.Duration
	vectors                    int
	showVec, stats             bool
	reportTop                  int
	csvOut, emitWrap           string
	fuse, seq, timing          bool
	mcSamples                  int
	mcSigma                    float64
	cpuProf, memProf           string
	submitURL, dumpReq         string
}

// parseFlags parses the command line.  The CLI keeps the historical
// heu1/heu2 shorthands, but everything past flag parsing speaks the
// canonical svto.Algorithm names.
func parseFlags(args []string) *options {
	o := &options{}
	fs := flag.NewFlagSet("leakopt", flag.ExitOnError)
	fs.StringVar(&o.bench, "bench", "", "built-in benchmark name (c432..c7552, alu64)")
	fs.StringVar(&o.in, "in", "", "read an ISCAS .bench (or structural Verilog .v) netlist instead")
	fs.Float64Var(&o.penalty, "penalty", 5, "delay penalty in percent of the max penalty range")
	fs.StringVar(&o.method, "method", "heu1", "heuristic1 | heuristic2 | exact | state-only | vt-state | compare (heu1/heu2 accepted as aliases)")
	fs.Float64Var(&o.heu2sec, "heu2sec", 5, "heuristic 2 time budget (seconds)")
	fs.IntVar(&o.workers, "workers", 1, "parallel search workers (0 = all CPUs)")
	fs.Int64Var(&o.maxLeaves, "max-leaves", 0, "stop after this many complete states (0 = unlimited); counts leaves, not work, so it bounds no run time")
	fs.StringVar(&o.ckPath, "checkpoint", "", "write crash-safe search snapshots to this file (heu2/exact)")
	fs.DurationVar(&o.ckEvery, "checkpoint-interval", 30*time.Second, "periodic snapshot cadence for -checkpoint")
	fs.BoolVar(&o.resume, "resume", false, "resume the search from the -checkpoint snapshot")
	fs.DurationVar(&o.progress, "progress", 0, "print search progress at this interval (e.g. 2s; 0 = off)")
	fs.StringVar(&o.library, "library", "4opt", "4opt | 2opt | 4opt-uniform | 2opt-uniform")
	fs.IntVar(&o.vectors, "vectors", 10000, "random vectors for the reference average (0: no reference)")
	fs.BoolVar(&o.showVec, "show-vector", false, "print the sleep vector")
	fs.BoolVar(&o.stats, "stats", false, "print search statistics")
	fs.IntVar(&o.reportTop, "report", 0, "print a leakage report with the top N gates")
	fs.StringVar(&o.csvOut, "report-csv", "", "write the per-gate leakage report as CSV")
	fs.StringVar(&o.emitWrap, "emit-standby", "", "write the circuit with sleep-vector gating inserted (.bench)")
	fs.BoolVar(&o.fuse, "fuse", false, "run the AOI/OAI peephole fusion pass before optimizing")
	fs.BoolVar(&o.seq, "seq", false, "treat -in as a sequential .bench (DFFs cut at the register boundary)")
	fs.BoolVar(&o.timing, "timing", false, "print the critical path of the optimized circuit")
	fs.IntVar(&o.mcSamples, "mc", 0, "run an N-sample process-variation Monte Carlo on the result")
	fs.Float64Var(&o.mcSigma, "mc-sigma", 30, "threshold-voltage sigma for -mc, millivolts")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memProf, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&o.submitURL, "submit", "", "run remotely: submit the job to a leakoptd base URL (e.g. http://localhost:8080)")
	fs.StringVar(&o.dumpReq, "dump-request", "", "print the job request JSON for these flags and exit ('-' for stdout)")
	fs.Parse(args)
	switch o.method {
	case "heu1":
		o.method = string(svto.Heuristic1)
	case "heu2":
		o.method = string(svto.Heuristic2)
	}
	return o
}

func main() {
	o := parseFlags(os.Args[1:])
	// Ctrl-C cancels the search (the engine returns the incumbent) or the
	// remote job.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.submitURL != "" || o.dumpReq != "" {
		if o.method == "compare" || o.method == "vt-state" || o.mcSamples > 0 || o.timing || o.ckPath != "" || o.resume {
			fatal(fmt.Errorf("-submit/-dump-request send only what a job request carries; -method compare and vt-state, -mc, -timing and -checkpoint are local-only"))
		}
		req, cut, err := buildRequest(o)
		if err != nil {
			fatal(err)
		}
		if o.dumpReq != "" {
			if err := dumpRequest(req, o.dumpReq); err != nil {
				fatal(err)
			}
			return
		}
		if err := submit(ctx, os.Stdout, o, req, cut); err != nil {
			fatal(err)
		}
		return
	}

	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuProfFile = f
	}
	memProfPath = o.memProf
	defer stopProfiles()
	if _, err := run(ctx, os.Stdout, o); err != nil {
		fatal(err)
	}
}

// run is the local flow: compile the request buildRequest describes, solve
// it (compare: as state-only, heuristic1 and heuristic2; vt-state: over the
// Vt-only library with the Isub-only objective of [12]), print each result
// and render the local reports from the last one, which it returns.
func run(ctx context.Context, w io.Writer, o *options) (*svto.Result, error) {
	req, cut, err := buildRequest(o)
	if err != nil {
		return nil, err
	}
	if cut != nil {
		fmt.Fprintf(w, "sequential cut: %d PIs, %d POs, %d flip-flops\n", cut.PIs, cut.POs, cut.NumState())
	}
	comp, err := svto.Compile(req, nil)
	if err != nil {
		return nil, err
	}
	st, err := comp.Circ.Stats()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		comp.Circ.Name, st.Inputs, st.Outputs, st.Gates, st.Depth)
	fmt.Fprintf(w, "delay: Dmin=%.0fps Dmax=%.0fps budget(%.0f%%)=%.0fps\n",
		comp.Prob.Dmin, comp.Prob.Dmax, o.penalty, comp.Prob.Budget(req.Search.Penalty))

	var ro svto.RunOptions
	if o.ckPath != "" || o.resume {
		ro.Checkpoint = svto.Checkpoint{Path: o.ckPath, Interval: o.ckEvery, Resume: o.resume}
	}
	if o.progress > 0 {
		ro.Progress = func(p svto.Progress) { printProgress(w, p) }
	}
	solves := []svto.Request{req}
	switch o.method {
	case "vt-state":
		libOpt, err := svto.LibraryOptions(req.Library.Policy)
		if err != nil {
			return nil, err
		}
		libOpt.VtOnly = true
		lib, err := library.Cached(tech.Default(), libOpt)
		if err != nil {
			return nil, err
		}
		prob, err := core.NewProblem(comp.Circ, lib, sta.DefaultConfig(), core.ObjIsubOnly)
		if err != nil {
			return nil, err
		}
		comp = &svto.Compiled{Circ: comp.Circ, Lib: lib, Prob: prob}
	case "compare":
		// The reference solves carry no time limit, and only the first
		// computes the baseline; the later results reuse it.
		stateOnly, heu1 := req, req
		stateOnly.Search.Algorithm, stateOnly.Search.TimeLimitSec = svto.StateOnly, 0
		heu1.Search.Algorithm, heu1.Search.TimeLimitSec = svto.Heuristic1, 0
		heu1.Search.BaselineVectors, req.Search.BaselineVectors = 0, 0
		solves = []svto.Request{stateOnly, heu1, req}
	}

	var res *svto.Result
	for _, r := range solves {
		opt, err := comp.CoreOptions(r, ro)
		if err != nil {
			return nil, err
		}
		opt.ProgressInterval = o.progress
		next, err := comp.Solve(ctx, r, opt, nil)
		if err != nil {
			if next == nil {
				return nil, err
			}
			// Degraded run (e.g. every worker died): report the incumbent
			// but make the failure visible.
			fmt.Fprintf(os.Stderr, "leakopt: warning: %v (reporting best solution found)\n", err)
		}
		if res != nil && r.Search.BaselineVectors == 0 {
			next.BaselineNA = res.BaselineNA
		}
		res = next
		label := string(r.Search.Algorithm)
		if o.method == "vt-state" {
			label = "vt+state[12]"
		}
		printResult(w, label, r, res, o)
	}
	return res, report(w, comp, res, o, cut)
}

// report renders what only a local run can: the -seq sleep-vector split,
// the -emit-standby netlist, the -timing critical path, the -mc variation
// statistics and the -report/-report-csv power breakdown.
func report(w io.Writer, comp *svto.Compiled, res *svto.Result, o *options, cut *seq.Circuit) error {
	if cut != nil {
		if err := printSeqVector(w, cut, res.SleepVector); err != nil {
			return err
		}
	}
	if o.emitWrap != "" {
		if err := writeFile(w, o.emitWrap, res.WriteStandbyBench); err != nil {
			return err
		}
	}
	if o.timing {
		st, err := comp.Prob.Timer.NewState(res.Solution().Choices)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, st.FormatCritical(st.Slacks(res.BudgetPS)))
	}
	if o.mcSamples > 0 {
		model := variation.DefaultModel()
		model.SigmaVtMV = o.mcSigma
		st, err := variation.MonteCarlo(comp.Prob, res.Solution(), model, o.mcSamples)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, st.Format())
	}
	if o.reportTop > 0 {
		text, err := res.Report(o.reportTop)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, text)
	}
	if o.csvOut != "" {
		return writeFile(w, o.csvOut, res.WritePowerCSV)
	}
	return nil
}

// printProgress writes one live search snapshot: local -progress ticks and
// a submitted job's status polls.
func printProgress(w io.Writer, p svto.Progress) {
	fmt.Fprintf(w, "  [%6.1fs] best=%8.2f µA  nodes=%d leaves=%d pruned=%d\n",
		p.Elapsed.Seconds(), p.BestLeakNA/1000, p.StateNodes, p.Leaves, p.Pruned)
}

// printResult writes a result's summary for local runs and -submit alike:
// the random-vector reference when req computed one, the result line, the
// -stats search counters, the -show-vector bits, and a warning per search
// worker that died.
func printResult(w io.Writer, label string, req svto.Request, res *svto.Result, o *options) {
	if n := req.Search.BaselineVectors; n > 0 {
		fmt.Fprintf(w, "average leakage over %d random vectors: %.2f µA\n", n, res.BaselineNA/1000)
	}
	note := ""
	if res.Interrupted {
		note = " (interrupted)"
	}
	if res.Resumed {
		note += fmt.Sprintf(" (resumed, %v prior)", res.PriorRuntime.Round(time.Millisecond))
	}
	ratio := ""
	if x := res.ReductionX(); x > 0 {
		ratio = fmt.Sprintf("  (%.1fX)", x)
	}
	fmt.Fprintf(w, "%-12s leak=%8.2f µA%s  Isub=%7.2f µA  delay=%6.0f ps  [%v]%s\n",
		label, res.LeakNA/1000, ratio, res.IsubNA/1000,
		res.DelayPS, res.Stats.Runtime.Round(time.Millisecond), note)
	if o.stats {
		// In cluster mode the daemon's counters are merged across every
		// shard.
		fmt.Fprintf(w, "             state nodes %d, gate trials %d, leaves %d, pruned %d\n",
			res.Stats.StateNodes, res.Stats.GateTrials, res.Stats.Leaves, res.Stats.Pruned)
		if res.Stats.RelaxBounds > 0 {
			fmt.Fprintf(w, "             relax probes %d (pruned %d)\n",
				res.Stats.RelaxBounds, res.Stats.RelaxPruned)
		}
		if res.Resumed {
			fmt.Fprintf(w, "             resumed run: %v of runtime carried from prior run(s)\n",
				res.PriorRuntime.Round(time.Millisecond))
		}
		if res.Stats.CheckpointWrites > 0 || res.Stats.CheckpointErrors > 0 {
			fmt.Fprintf(w, "             checkpoint writes %d (errors %d)\n",
				res.Stats.CheckpointWrites, res.Stats.CheckpointErrors)
		}
	}
	if o.showVec {
		fmt.Fprint(w, "             sleep vector: ")
		for i, v := range res.SleepVector {
			fmt.Fprint(w, bit(v))
			if i%8 == 7 {
				fmt.Fprint(w, " ")
			}
		}
		fmt.Fprintln(w)
	}
	for _, wf := range res.WorkerFailures {
		fmt.Fprintf(os.Stderr, "leakopt: warning: search %s\n", wf)
	}
}

// printSeqVector splits a -seq sleep vector into its primary-input and
// flip-flop parts and lists the flip-flop bits.
func printSeqVector(w io.Writer, cut *seq.Circuit, state []bool) error {
	piBits, ffBits, err := cut.SleepVector(state)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sleep vector: %d primary-input bits, %d flip-flop bits (load via modified FFs):\n", len(piBits), len(ffBits))
	for i, ff := range cut.FFs {
		fmt.Fprintf(w, "  %s=%d", ff.Out, bit(ffBits[i]))
	}
	fmt.Fprintln(w)
	return nil
}

func bit(v bool) int {
	if v {
		return 1
	}
	return 0
}

// writeFile writes path through write and reports it.
func writeFile(w io.Writer, path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// Profile state lives at package scope so fatal (which exits without
// running deferred calls) can still flush profiles.
var (
	cpuProfFile *os.File
	memProfPath string
)

// stopProfiles flushes any active CPU profile and writes the heap profile.
// Safe to call more than once.
func stopProfiles() {
	if cpuProfFile != nil {
		pprof.StopCPUProfile()
		cpuProfFile.Close()
		cpuProfFile = nil
	}
	if memProfPath != "" {
		path := memProfPath
		memProfPath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "leakopt:", err)
			return
		}
		runtime.GC() // materialize up-to-date heap statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "leakopt:", err)
		}
		f.Close()
	}
}

func fatal(err error) {
	stopProfiles()
	fmt.Fprintln(os.Stderr, "leakopt:", err)
	os.Exit(1)
}
