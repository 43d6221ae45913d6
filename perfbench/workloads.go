package main

import (
	"bytes"
	"fmt"
	"strings"

	"svto/internal/core"
	"svto/internal/gen"
	"svto/internal/netlist"
)

// workloadNames lists the workloads in the order "--workload all" runs them.
var workloadNames = []string{"paper-h1", "paper-h2", "bnb-exhaustive", "cluster-bnb", "scale-100k"}

const (
	// defaultSeed is the seed the Workers=1 reference objectives in refs.go
	// were recorded at.
	defaultSeed = 1
	// h2Leaves is paper-h2's leaf budget: enough greedy leaves that leaf
	// throughput shows next to the relax.Build cost, few enough that one
	// pass fits the measurement window.
	h2Leaves = 300
	// bnbPenalty is the tight delay penalty at which the relaxation cascade
	// prunes the MuxBank shapes; at looser budgets every gate's cheapest
	// version is feasible alone and relax.Build has nothing to tighten.
	bnbPenalty = 0.002
	// exactPenalty is the delay penalty of the small exact instance.
	exactPenalty = 0.05
	// paperVectors and scaleVectors are the random-vector counts of the
	// unoptimized baseline.  The paper used 10000; these keep set-up short
	// while the baseline moves by well under 1% from seed to seed.
	paperVectors = 1000
	scaleVectors = 100
)

// instSpec names one circuit of a workload and how to generate it.
type instSpec struct {
	name    string
	build   func() (*netlist.Circuit, error)
	vectors int
	// fixed reports that the circuit does not depend on the seed, so every
	// Workers=1 objective on it must match refs.go bit for bit.
	fixed bool
}

// jobSpec is one timed solve of a pass.
type jobSpec struct {
	inst      string
	alg       core.Algorithm
	penalty   float64
	workers   int
	maxLeaves int64
	// fresh builds a new Problem for every timed solve: Problem caches its
	// relaxation engine per budget, so a reused one would hide relax.Build
	// after the first pass.
	fresh bool
	// cluster routes the solve through the in-process coordinator.
	cluster bool
	// primary marks the optimized results reduction_x is taken over (the
	// state-only baseline is not one).
	primary bool
}

// exhaustive reports whether the job runs its search to a proven fixpoint,
// so its objective must equal the Workers=1 optimum within core.LeakEps.
func (j jobSpec) exhaustive() bool {
	return (j.alg == core.AlgHeuristic2 || j.alg == core.AlgExact) && j.maxLeaves == 0
}

// key identifies the job's objective in refs.go and the reference maps;
// the worker count is left out because it must not change the objective.
func (j jobSpec) key() string {
	return fmt.Sprintf("%s/%v/%g/%d", j.inst, j.alg, j.penalty, j.maxLeaves)
}

type workload struct {
	name  string
	insts []instSpec
	jobs  []jobSpec
}

// cluster reports whether any job runs through the coordinator.
func (wl *workload) cluster() bool {
	for _, j := range wl.jobs {
		if j.cluster {
			return true
		}
	}
	return false
}

// workers is the largest worker count among the workload's jobs; a cluster
// job counts its one-worker shards.
func (wl *workload) workers() int {
	n := 0
	for _, j := range wl.jobs {
		n = max(n, j.workers)
	}
	return n
}

// newWorkload builds the named workload's instance and job lists.  small
// shrinks every workload to its cheapest instances, for the smoke test.
func newWorkload(name string, seed int64, small bool, nproc int) (*workload, error) {
	wl := &workload{name: name}
	switch name {
	case "paper-h1":
		// Tables 3 and 4 and the default CLI/daemon request: Heuristic 1 at
		// the paper's three penalties plus the state-only baseline.
		penalties := []float64{0.05, 0.10, 0.25}
		profiles := gen.Benchmarks()
		if small {
			penalties, profiles = penalties[:1], profiles[:1]
		}
		for _, prof := range profiles {
			wl.insts = append(wl.insts, instSpec{name: prof.Name, build: prof.Build, vectors: paperVectors, fixed: true})
			for _, pen := range penalties {
				wl.jobs = append(wl.jobs, jobSpec{inst: prof.Name, alg: core.AlgHeuristic1, penalty: pen, workers: 1, primary: true})
			}
			// State-only ignores the penalty; its delay is checked against
			// the tightest budget.
			wl.jobs = append(wl.jobs, jobSpec{inst: prof.Name, alg: core.AlgStateOnly, penalty: penalties[0], workers: 1})
		}
	case "paper-h2":
		names := []string{"c432", "c880"}
		if small {
			names = names[:1]
		}
		for _, n := range names {
			prof, err := gen.ByName(n)
			if err != nil {
				return nil, err
			}
			wl.insts = append(wl.insts, instSpec{name: n, build: prof.Build, vectors: paperVectors, fixed: true})
			wl.jobs = append(wl.jobs, jobSpec{inst: n, alg: core.AlgHeuristic2, penalty: 0.05, workers: 1,
				maxLeaves: h2Leaves, fresh: true, primary: true})
		}
	case "bnb-exhaustive", "cluster-bnb":
		wl.insts, wl.jobs = bnbMatrix(seed, small, nproc, name == "cluster-bnb")
	case "scale-100k":
		prof, err := gen.ByName("cache100k")
		if err != nil {
			return nil, err
		}
		inst := instSpec{name: prof.Name, build: prof.Build, vectors: scaleVectors, fixed: true}
		if small {
			inst.name = "cache-small"
			inst.build = func() (*netlist.Circuit, error) { return gen.CacheDatapath("cache-small", 4, 8, 8, 4, 16) }
		}
		wl.insts = []instSpec{inst}
		wl.jobs = []jobSpec{
			{inst: inst.name, alg: core.AlgHeuristic1, penalty: 0.05, workers: 1, primary: true},
			{inst: inst.name, alg: core.AlgStateOnly, penalty: 0.05, workers: 1},
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, strings.Join(workloadNames, ", "))
	}
	return wl, nil
}

// bnbMatrix is the exhaustive-search matrix bnb-exhaustive runs locally and
// cluster-bnb through the coordinator: Heuristic 2 to exhaustion on MuxBank
// shapes, whose shared selects make the bounds prune, plus one small exact
// instance drawn from the seed.
func bnbMatrix(seed int64, small bool, nproc int, cluster bool) ([]instSpec, []jobSpec) {
	type shape struct{ sel, banks int }
	muxes := []shape{{1, 7}, {2, 3}}
	exIn, exGates := 8, 14
	if small {
		muxes = []shape{{1, 3}}
		exIn, exGates = 6, 10
	}
	var insts []instSpec
	var jobs []jobSpec
	for _, m := range muxes {
		name := fmt.Sprintf("mux%dx%d", m.sel, m.banks)
		insts = append(insts, instSpec{name: name, vectors: paperVectors, fixed: true,
			build: roundTrip(func() (*netlist.Circuit, error) { return gen.MuxBank(name, m.sel, m.banks) })})
		jobs = append(jobs, jobSpec{inst: name, alg: core.AlgHeuristic2, penalty: bnbPenalty, workers: nproc,
			fresh: true, cluster: cluster, primary: true})
	}
	rnd := fmt.Sprintf("rnd%dx%d-s%d", exIn, exGates, seed)
	insts = append(insts, instSpec{name: rnd, vectors: paperVectors,
		build: roundTrip(func() (*netlist.Circuit, error) { return gen.RandomLogic(rnd, seed, exIn, exGates) })})
	jobs = append(jobs, jobSpec{inst: rnd, alg: core.AlgExact, penalty: exactPenalty, workers: nproc,
		fresh: true, cluster: cluster, primary: true})
	return insts, jobs
}

// roundTrip passes a generated circuit through the .bench writer and
// reader, so the local problem is compiled from exactly the netlist text a
// cluster request carries: both sides then order gates, and sum leakage,
// identically.
func roundTrip(build func() (*netlist.Circuit, error)) func() (*netlist.Circuit, error) {
	return func() (*netlist.Circuit, error) {
		c, err := build()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := netlist.WriteBench(&buf, c); err != nil {
			return nil, err
		}
		return netlist.ReadBench(&buf, c.Name)
	}
}
