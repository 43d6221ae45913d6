// Command perfbench is the repository's outside-in benchmark.  It drives
// the solver only through each layer's public entry points, over the
// workload matrix described in README.md, checks every answer it gets, and
// prints one JSON result object as the last line of standard output.  Run
// it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-h1 --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of untraced
// solves; with --trace 1 it carries the per-layer metrics of a separate
// traced pass, whose spans are written under --out when the run ends.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runLimit bounds the solves of one workload run: a search that misbehaves
// is interrupted, and counted as a failed solve, well inside the three
// minutes one benchmark run may take.
const runLimit = 150 * time.Second

// metric is one named measurement of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is what a result was measured on and with.
type environment struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Small      bool    `json:"small,omitempty"`
	WindowS    float64 `json:"window_s"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SetupReps  int     `json:"setup_reps"`
	// Calibration says how an untraced run timed its calibration kernel:
	// "sampler" or "burst" (see calib.go).
	Calibration string `json:"calibration,omitempty"`
	// Workers lists the search worker counts the workload's solves use.
	Workers []int `json:"workers"`
	// The cluster fields are set for workloads that run a cluster.
	Shards             int     `json:"shards,omitempty"`
	ShardWorkers       int     `json:"shard_workers,omitempty"`
	CoordinatorTickMS  float64 `json:"coordinator_tick_ms,omitempty"`
	ShardPollMS        float64 `json:"shard_poll_ms,omitempty"`
	ShardSyncMS        float64 `json:"shard_sync_ms,omitempty"`
	SnapshotIntervalMS float64 `json:"snapshot_interval_ms,omitempty"`
	LeaseTasks         int     `json:"lease_tasks,omitempty"`
	// ClusterRatio labels cluster-versus-local comparisons: "scaling" only
	// when every shard can have a CPU of its own (nproc ≥ shards), else
	// "overlap", since time-shared shards only overlap pipeline stages.
	ClusterRatio string `json:"cluster_ratio,omitempty"`
}

// record is the full result of one run, written next to the spans.
type record struct {
	Env    environment `json:"env"`
	SetupS []float64   `json:"setup_s,omitempty"`
	// SetupAdjS holds the same set-ups at the calibration reference speed.
	SetupAdjS []float64 `json:"setup_adj_s,omitempty"`
	Samples   []sample  `json:"samples"`
	// ClusterVsLocal is the traced local solve time over the cluster run
	// time of the same instances; see Env.ClusterRatio for its label.
	ClusterVsLocal float64 `json:"cluster_vs_local,omitempty"`
	Result         result  `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed: draws the random exact instance and the baseline vectors")
		seconds = flag.Float64("seconds", 10, "measurement window of one run, in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced solves; 1: per-layer metrics of a traced pass")
		small   = flag.Bool("small", false, "run every workload at minimal size")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result records, span files and snapshots")
		record  = flag.Bool("record-refs", false, "print the Workers=1 objectives as refs.go entries instead of checking them")
	)
	flag.Parse()
	if *name == "" || (*trace != 0 && *trace != 1) || *seconds <= 0 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		small:  *small,
		record: *record,
		nproc:  min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		outDir: *out,
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	// With several workloads the last line sums their counts and prefixes
	// each metric with its workload's name.
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		res, rec, err := runWorkload(n, cfg)
		if err == nil {
			err = emit(rec, cfg.outDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[n+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runWorkload runs one workload end to end (or traced) and returns its
// result and record.
func runWorkload(name string, cfg config) (result, *record, error) {
	wl, err := newWorkload(name, cfg.seed, cfg.small, cfg.nproc)
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	b := newBench(cfg, wl)
	defer b.close()
	rec := &record{Env: b.environment()}
	var m map[string]metric
	if cfg.trace {
		m, err = b.traced(ctx, rec)
	} else {
		m, err = b.endToEnd(ctx, rec)
	}
	if err != nil {
		return result{}, nil, err
	}
	if cfg.record {
		printRefs(b.observed)
	}
	rec.Result = result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	return rec.Result, rec, nil
}

func (b *bench) environment() environment {
	env := environment{
		Workload:   b.wl.name,
		Seed:       b.cfg.seed,
		Trace:      b.cfg.trace,
		Small:      b.cfg.small,
		WindowS:    b.cfg.window.Seconds(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("PERFBENCH_COMMIT"),
		SetupReps:  setupReps,
	}
	if env.Commit == "" {
		env.Commit = "unknown"
	}
	if b.cfg.trace {
		env.SetupReps = 1
	}
	seen := map[int]bool{}
	for _, j := range b.wl.jobs {
		if !seen[j.workers] {
			seen[j.workers] = true
			env.Workers = append(env.Workers, j.workers)
		}
	}
	if b.wl.cluster() {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		env.Shards, env.ShardWorkers = b.cfg.nproc, 1
		env.CoordinatorTickMS, env.ShardPollMS = ms(coordTick), ms(shardPoll)
		env.ShardSyncMS, env.SnapshotIntervalMS = ms(shardSync), ms(snapshotInterval)
		env.LeaseTasks = leaseTasks
		env.ClusterRatio = "overlap"
		if env.NProc >= env.Shards {
			env.ClusterRatio = "scaling"
		}
	}
	return env
}

// emit prints the record as one JSON line (before the result line), writes
// it under dir, and lists the metrics on standard error.
func emit(rec *record, dir string) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	trace := 0
	if rec.Env.Trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rec.Env.Workload, rec.Env.Seed, trace))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for k := range rec.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(os.Stderr, "%-14s %-28s %14.6g %s\n", rec.Env.Workload, k, m.Value, m.Unit)
	}
	return nil
}

// printRefs prints observed Workers=1 objectives as refs.go map entries.
func printRefs(observed map[string]uint64) {
	keys := make([]string, 0, len(observed))
	for k := range observed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "\t%q: %#016x,\n", k, observed[k])
	}
}
