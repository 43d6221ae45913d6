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
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"svto/internal/core"
	"svto/internal/gen"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/power"
	"svto/internal/seq"
	"svto/internal/sta"
	"svto/internal/standby"
	"svto/internal/tech"
	"svto/internal/techmap"
	"svto/internal/variation"
	"svto/internal/verilog"
	"svto/pkg/svto"
)

func main() {
	var (
		benchName = flag.String("bench", "", "built-in benchmark name (c432..c7552, alu64)")
		inFile    = flag.String("in", "", "read an ISCAS .bench netlist instead")
		penalty   = flag.Float64("penalty", 5, "delay penalty in percent of the max penalty range")
		method    = flag.String("method", "heu1", "heuristic1 | heuristic2 | exact | state-only | vt-state | compare (heu1/heu2 accepted as aliases)")
		heu2sec   = flag.Float64("heu2sec", 5, "heuristic 2 time budget (seconds)")
		workers   = flag.Int("workers", 1, "parallel search workers (0 = all CPUs)")
		maxLeaves = flag.Int64("max-leaves", 0, "stop after this many complete states (0 = unlimited)")
		ckPath    = flag.String("checkpoint", "", "write crash-safe search snapshots to this file (heu2/exact)")
		ckEvery   = flag.Duration("checkpoint-interval", 30*time.Second, "periodic snapshot cadence for -checkpoint")
		ckResume  = flag.Bool("resume", false, "resume the search from the -checkpoint snapshot")
		progress  = flag.Duration("progress", 0, "print search progress at this interval (e.g. 2s; 0 = off)")
		libOpt    = flag.String("library", "4opt", "4opt | 2opt | 4opt-uniform | 2opt-uniform")
		vectors   = flag.Int("vectors", 10000, "random vectors for the reference average (0: no reference)")
		showVec   = flag.Bool("show-vector", false, "print the sleep vector")
		showStats = flag.Bool("stats", false, "print search statistics")
		reportTop = flag.Int("report", 0, "print a leakage report with the top N gates")
		csvOut    = flag.String("report-csv", "", "write the per-gate leakage report as CSV")
		emitWrap  = flag.String("emit-standby", "", "write the circuit with sleep-vector gating inserted (.bench)")
		fuse      = flag.Bool("fuse", false, "run the AOI/OAI peephole fusion pass before optimizing")
		seqMode   = flag.Bool("seq", false, "treat -in as a sequential .bench (DFFs cut at the register boundary)")
		timing    = flag.Bool("timing", false, "print the critical path of the optimized circuit")
		mcSamples = flag.Int("mc", 0, "run an N-sample process-variation Monte Carlo on the result")
		mcSigma   = flag.Float64("mc-sigma", 30, "threshold-voltage sigma for -mc, millivolts")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		submitURL = flag.String("submit", "", "run remotely: submit the job to a leakoptd base URL (e.g. http://localhost:8080)")
		dumpReq   = flag.String("dump-request", "", "print the job request JSON for these flags and exit ('-' for stdout)")
	)
	flag.Parse()

	// The CLI keeps the historical heu1/heu2 shorthands, but everything past
	// flag parsing speaks the canonical core.Algorithm.String names — one
	// parser (core.ParseAlgorithm) for the local flow, -submit and the wire.
	methodName := normalizeMethod(*method)
	if err := svto.CheckBaselineVectors(*vectors); err != nil {
		fatal(fmt.Errorf("-vectors: %w", err))
	}

	if *submitURL != "" || *dumpReq != "" {
		if *seqMode || *mcSamples > 0 || *timing || *ckPath != "" || *ckResume {
			fatal(fmt.Errorf("-submit/-dump-request run the portable job flow; -seq, -mc, -timing and -checkpoint are local-only"))
		}
		req, err := buildRequest(*benchName, *inFile, methodName, *libOpt, *penalty, *heu2sec,
			*workers, *maxLeaves, *vectors, *reportTop, *fuse, *emitWrap != "")
		if err != nil {
			fatal(err)
		}
		if *dumpReq != "" {
			if err := dumpRequest(req, *dumpReq); err != nil {
				fatal(err)
			}
			return
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := submit(ctx, *submitURL, req, *csvOut, *emitWrap, *showStats); err != nil {
			fatal(err)
		}
		return
	}

	if (*ckPath != "" || *ckResume) && methodName != "heuristic2" && methodName != "exact" {
		fatal(fmt.Errorf("-checkpoint/-resume require -method heuristic2 or exact (got %q)", *method))
	}
	if *ckResume && *ckPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		cpuProfFile = f
	}
	memProfPath = *memProf
	defer stopProfiles()

	var seqCut *seq.Circuit
	var circ *netlist.Circuit
	var err error
	if *seqMode {
		if *inFile == "" {
			fatal(fmt.Errorf("-seq requires -in"))
		}
		f, ferr := os.Open(*inFile)
		if ferr != nil {
			fatal(ferr)
		}
		seqCut, err = seq.ReadBench(f, strings.TrimSuffix(filepath.Base(*inFile), ".bench"))
		f.Close()
		if err != nil {
			fatal(err)
		}
		circ, err = techmap.Map(seqCut.Comb)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("sequential cut: %d PIs, %d POs, %d flip-flops\n", seqCut.PIs, seqCut.POs, seqCut.NumState())
	} else {
		circ, err = loadCircuit(*benchName, *inFile)
		if err != nil {
			fatal(err)
		}
	}
	if *fuse {
		before := len(circ.Gates)
		circ, err = techmap.Optimize(circ)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fusion pass: %d -> %d gates\n", before, len(circ.Gates))
	}
	opt, err := svto.LibraryOptions(svto.Library(*libOpt))
	if err != nil {
		fatal(err)
	}
	lib, err := library.Cached(tech.Default(), opt)
	if err != nil {
		fatal(err)
	}
	p, err := core.NewProblem(circ, lib, sta.DefaultConfig(), core.ObjTotal)
	if err != nil {
		fatal(err)
	}
	st, err := circ.Stats()
	if err != nil {
		fatal(err)
	}
	pen := *penalty / 100
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		circ.Name, st.Inputs, st.Outputs, st.Gates, st.Depth)
	fmt.Printf("delay: Dmin=%.0fps Dmax=%.0fps budget(%.0f%%)=%.0fps\n",
		p.Dmin, p.Dmax, *penalty, p.Budget(pen))
	avg, err := referenceAverage(os.Stdout, p, *vectors)
	if err != nil {
		fatal(err)
	}

	report := func(prob *core.Problem, sol *core.Solution) {
		if seqCut != nil {
			piBits, ffBits, err := seqCut.SleepVector(sol.State)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("sleep vector: %d primary-input bits, %d flip-flop bits (load via modified FFs):\n", len(piBits), len(ffBits))
			for i, ff := range seqCut.FFs {
				v := 0
				if ffBits[i] {
					v = 1
				}
				fmt.Printf("  %s=%d", ff.Out, v)
			}
			fmt.Println()
		}
		if *emitWrap != "" {
			wrapped, err := standby.Wrap(circ, sol.State)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*emitWrap)
			if err != nil {
				fatal(err)
			}
			if err := netlist.WriteBench(f, wrapped); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s (+%d gating gates)\n", *emitWrap, standby.Overhead(len(circ.Inputs)))
		}
		if *timing {
			st, err := prob.Timer.NewState(sol.Choices)
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			fmt.Print(st.FormatCritical(st.Slacks(prob.Budget(pen))))
		}
		if *mcSamples > 0 {
			model := variation.DefaultModel()
			model.SigmaVtMV = *mcSigma
			st, err := variation.MonteCarlo(prob, sol, model, *mcSamples)
			if err != nil {
				fatal(err)
			}
			fmt.Println()
			fmt.Print(st.Format())
		}
		if *reportTop <= 0 && *csvOut == "" {
			return
		}
		rep, err := power.Analyze(prob, sol)
		if err != nil {
			fatal(err)
		}
		if *reportTop > 0 {
			fmt.Println()
			fmt.Print(rep.Format(*reportTop))
		}
		if *csvOut != "" {
			f, err := os.Create(*csvOut)
			if err != nil {
				fatal(err)
			}
			if err := rep.WriteCSV(f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *csvOut)
		}
	}

	run := func(label string, f func() (*core.Solution, error)) *core.Solution {
		sol, err := f()
		if err != nil {
			if sol == nil {
				fatal(err)
			}
			// Degraded run (e.g. every worker died): report the incumbent
			// but make the failure visible.
			fmt.Fprintf(os.Stderr, "leakopt: warning: %v (reporting best solution found)\n", err)
		}
		for _, wf := range sol.Stats.WorkerFailures {
			fmt.Fprintf(os.Stderr, "leakopt: warning: search worker %d died: %s\n", wf.Worker, wf.Err)
		}
		note := ""
		if sol.Stats.Interrupted {
			note = " (interrupted)"
		}
		ratio := ""
		if avg > 0 {
			ratio = fmt.Sprintf("  (%.1fX)", avg/sol.Leak)
		}
		fmt.Printf("%-12s leak=%8.2f µA%s  Isub=%7.2f µA  delay=%6.0f ps  [%v]%s\n",
			label, sol.Leak/1000, ratio, sol.Isub/1000, sol.Delay, sol.Stats.Runtime.Round(time.Millisecond), note)
		if *showStats {
			fmt.Printf("             state nodes %d, gate trials %d, leaves %d, pruned %d\n",
				sol.Stats.StateNodes, sol.Stats.GateTrials, sol.Stats.Leaves, sol.Stats.Pruned)
			if sol.Stats.RelaxBounds > 0 {
				fmt.Printf("             relax probes %d (pruned %d)\n",
					sol.Stats.RelaxBounds, sol.Stats.RelaxPruned)
			}
			if sol.Stats.Resumed {
				fmt.Printf("             resumed run: %v of runtime carried from prior run(s)\n",
					sol.Stats.PriorRuntime.Round(time.Millisecond))
			}
			if sol.Stats.CheckpointWrites > 0 || sol.Stats.CheckpointErrors > 0 {
				fmt.Printf("             checkpoint writes %d (errors %d)\n",
					sol.Stats.CheckpointWrites, sol.Stats.CheckpointErrors)
			}
		}
		if *showVec {
			fmt.Print("             sleep vector: ")
			for i, v := range sol.State {
				if v {
					fmt.Print("1")
				} else {
					fmt.Print("0")
				}
				if i%8 == 7 {
					fmt.Print(" ")
				}
			}
			fmt.Println()
		}
		return sol
	}

	// Ctrl-C cancels the search; the engine returns the incumbent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	solve := func(prob *core.Problem, alg core.Algorithm, limit time.Duration) func() (*core.Solution, error) {
		o := core.Options{
			Algorithm: alg,
			Penalty:   pen,
			TimeLimit: limit,
			Workers:   *workers,
			MaxLeaves: *maxLeaves,
		}
		if *ckPath != "" && (alg == core.AlgHeuristic2 || alg == core.AlgExact) {
			o.Checkpoint = core.CheckpointOptions{
				Path:     *ckPath,
				Interval: *ckEvery,
				Resume:   *ckResume,
			}
		}
		if *progress > 0 {
			o.ProgressInterval = *progress
			o.Progress = func(pr core.Progress) {
				fmt.Printf("  [%6.1fs] best=%8.2f µA  nodes=%d leaves=%d pruned=%d\n",
					pr.Elapsed.Seconds(), pr.BestLeak/1000, pr.StateNodes, pr.Leaves, pr.Pruned)
			}
		}
		return func() (*core.Solution, error) { return prob.Solve(ctx, o) }
	}

	heu2Limit := time.Duration(*heu2sec * float64(time.Second))
	switch methodName {
	case "vt-state":
		vtOpt := opt
		vtOpt.VtOnly = true
		vtLib, err := library.Cached(tech.Default(), vtOpt)
		if err != nil {
			fatal(err)
		}
		pvt, err := core.NewProblem(circ, vtLib, sta.DefaultConfig(), core.ObjIsubOnly)
		if err != nil {
			fatal(err)
		}
		report(pvt, run("vt+state[12]", solve(pvt, core.AlgHeuristic1, 0)))
	case "compare":
		run("state-only", solve(p, core.AlgStateOnly, 0))
		run("heuristic-1", solve(p, core.AlgHeuristic1, 0))
		report(p, run("heuristic-2", solve(p, core.AlgHeuristic2, heu2Limit)))
	default:
		alg, err := core.ParseAlgorithm(methodName)
		if err != nil {
			fatal(fmt.Errorf("unknown method %q", *method))
		}
		limit := time.Duration(0)
		if alg == core.AlgHeuristic2 {
			limit = heu2Limit
		}
		report(p, run(methodLabel(alg), solve(p, alg, limit)))
	}
}

// referenceAverage prints and returns the random-vector average leakage
// the run's reduction factors are quoted against.  vectors == 0 means no
// reference: nothing is printed and the average is 0, as BaselineVectors 0
// means in a -submit request.
func referenceAverage(w io.Writer, p *core.Problem, vectors int) (float64, error) {
	if vectors == 0 {
		return 0, nil
	}
	avg, err := p.AverageRandomLeak(2004, vectors)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "average leakage over %d random vectors: %.2f µA\n", vectors, avg/1000)
	return avg, nil
}

// normalizeMethod maps the CLI's historical heu1/heu2 shorthands onto the
// canonical core.Algorithm.String names; every other method string passes
// through unchanged.
func normalizeMethod(m string) string {
	switch m {
	case "heu1":
		return "heuristic1"
	case "heu2":
		return "heuristic2"
	}
	return m
}

// methodLabel is the report label of an algorithm (the historical hyphenated
// spellings, kept stable for script consumers).
func methodLabel(alg core.Algorithm) string {
	switch alg {
	case core.AlgHeuristic1:
		return "heuristic-1"
	case core.AlgHeuristic2:
		return "heuristic-2"
	default:
		return alg.String()
	}
}

func loadCircuit(benchName, inFile string) (*netlist.Circuit, error) {
	switch {
	case benchName != "" && inFile != "":
		return nil, fmt.Errorf("use only one of -bench and -in")
	case benchName != "":
		prof, err := gen.ByName(benchName)
		if err != nil {
			return nil, err
		}
		return prof.Build()
	case inFile != "":
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(inFile, ".v") {
			return verilog.Read(f, strings.TrimSuffix(filepath.Base(inFile), ".v"))
		}
		return netlist.ReadBench(f, inFile)
	default:
		return nil, fmt.Errorf("one of -bench or -in is required")
	}
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
