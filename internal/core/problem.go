// Package core implements the paper's primary contribution: simultaneous
// assignment of the standby-mode input state, per-transistor threshold
// voltage and gate-oxide thickness (via library cell versions) to minimize
// total standby leakage under a delay constraint.
//
// It provides the exact two-tree branch-and-bound of section 5, the two
// practical heuristics, and the comparison baselines: average leakage over
// random vectors, state assignment alone, and the prior state+Vt approach
// (reference [12], modeled as the same machinery over a Vt-only library
// with a subthreshold-only objective).
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/library"
	"svto/internal/netlist"
	"svto/internal/relax"
	"svto/internal/sim"
	"svto/internal/sta"
)

// Objective selects what the optimizer minimizes.  The proposed method
// minimizes total leakage; the [12] baseline only sees subthreshold
// leakage (gate tunneling did not exist in its model).
type Objective uint8

const (
	ObjTotal Objective = iota
	ObjIsubOnly
)

// Problem binds a mapped circuit to a library and timing environment.
type Problem struct {
	CC    *netlist.Compiled
	Lib   *library.Library
	Timer *sta.Timer
	Obj   Objective
	// Dmin and Dmax anchor the delay-penalty definition.
	Dmin, Dmax float64
	// leafFault, when set (tests only), runs before every tree-search
	// leaf attempt: an error fails the worker, context.Canceled stops the
	// search as interrupted, and a panic kills the worker.
	leafFault func() error
	// piOrder is the state-tree variable order (most influential first).
	piOrder []int
	// minChoice[g][s] is the minimum objective value over gate g's
	// choices in state s; minAny[g] is its minimum over all states.
	// Both are admissible state-tree bounds ingredients.
	minChoice [][]float64
	minAny    []float64
	// rankTab[g][s] is the stable ascending-objective ordering of gate
	// g's choices in state s (indexes into Cells[g].Choices[s]).  Every
	// gate-tree descent — greedy, exact and refinement — ranks candidates
	// this way, so the argsort is paid once per problem instead of once
	// per visited gate-tree node.
	rankTab [][][]int32
	// gainTab[g][s] is the potential objective saving of gate g in state
	// s: the fastest choice's objective minus minChoice[g][s].  It is the
	// gate-ordering key of the greedy and exact descents.
	gainTab [][]float64
	// fastTab[g][s] is the min-delay choice of gate g in state s,
	// replacing the per-visit linear scan of Cell.FastChoice.
	fastTab [][]*library.Choice
	// relaxCache memoizes the choice-elimination bound engine per delay
	// budget (keyed by the budget's float bits): cluster shards create a
	// fresh search per leased batch but share the Problem, so the build cost
	// is paid once.  A nil entry records that relaxation cannot improve on the
	// cheap bound at that budget.
	relaxMu    sync.Mutex
	relaxCache map[uint64]*relax.Engine
}

// NewProblem compiles, times and pre-analyzes a circuit.
func NewProblem(circ *netlist.Circuit, lib *library.Library, cfg sta.Config, obj Objective) (*Problem, error) {
	cc, err := circ.Compile()
	if err != nil {
		return nil, err
	}
	timer, err := sta.New(cc, lib, cfg)
	if err != nil {
		return nil, err
	}
	dmin, dmax, err := timer.DelayBounds()
	if err != nil {
		return nil, err
	}
	p := &Problem{CC: cc, Lib: lib, Timer: timer, Obj: obj, Dmin: dmin, Dmax: dmax}
	if err := p.precompute(); err != nil {
		return nil, err
	}
	return p, nil
}

// objOf returns the choice's objective value.
func (p *Problem) objOf(ch *library.Choice) float64 {
	if p.Obj == ObjIsubOnly {
		return ch.Isub
	}
	return ch.Leak
}

// objValue returns the solution's value under the problem objective.  The
// search incumbent compares and prunes in these units — under ObjIsubOnly
// the bounds (minChoice/minAny) are Isub sums, so comparing them against a
// total-leakage incumbent would both weaken pruning and make the [12]
// baseline minimize the wrong quantity.
func (p *Problem) objValue(sol *Solution) float64 {
	if p.Obj == ObjIsubOnly {
		return sol.Isub
	}
	return sol.Leak
}

func (p *Problem) precompute() error {
	cc := p.CC
	p.minChoice = make([][]float64, len(cc.Gates))
	p.minAny = make([]float64, len(cc.Gates))
	for gi := range cc.Gates {
		cell := p.Timer.Cells[gi]
		ns := cell.Template.NumStates()
		mins := make([]float64, ns)
		any := math.Inf(1)
		for s := 0; s < ns; s++ {
			m := math.Inf(1)
			for ci := range cell.Choices[s] {
				m = math.Min(m, p.objOf(&cell.Choices[s][ci]))
			}
			mins[s] = m
			any = math.Min(any, m)
		}
		p.minChoice[gi] = mins
		p.minAny[gi] = any
	}
	p.rankTab = make([][][]int32, len(cc.Gates))
	p.gainTab = make([][]float64, len(cc.Gates))
	p.fastTab = make([][]*library.Choice, len(cc.Gates))
	for gi := range cc.Gates {
		cell := p.Timer.Cells[gi]
		ns := cell.Template.NumStates()
		p.rankTab[gi] = make([][]int32, ns)
		p.gainTab[gi] = make([]float64, ns)
		p.fastTab[gi] = make([]*library.Choice, ns)
		for s := 0; s < ns; s++ {
			choices := cell.Choices[s]
			idx := make([]int32, len(choices))
			for i := range idx {
				idx[i] = int32(i)
			}
			sort.SliceStable(idx, func(a, b int) bool {
				return p.objOf(&choices[idx[a]]) < p.objOf(&choices[idx[b]])
			})
			p.rankTab[gi][s] = idx
			fast, err := cell.MinDelayChoice(uint(s))
			if err != nil {
				return fmt.Errorf("core: gate %s: %w", cc.NetName[cc.Gates[gi].Out], err)
			}
			p.fastTab[gi][s] = fast
			p.gainTab[gi][s] = p.objOf(fast) - p.minChoice[gi][s]
		}
	}
	// Order primary inputs by transitive fan-out size (influence).
	reach := make([]int, len(cc.PI))
	mark := make([]int, len(cc.Gates))
	for i := range mark {
		mark[i] = -1
	}
	for pii, pi := range cc.PI {
		var stack []int
		for _, g := range cc.Fanout[pi] {
			if mark[g] != pii {
				mark[g] = pii
				stack = append(stack, g)
			}
		}
		count := 0
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			for _, r := range cc.Fanout[cc.Gates[g].Out] {
				if mark[r] != pii {
					mark[r] = pii
					stack = append(stack, r)
				}
			}
		}
		reach[pii] = count
	}
	p.piOrder = make([]int, len(cc.PI))
	for i := range p.piOrder {
		p.piOrder[i] = i
	}
	sort.SliceStable(p.piOrder, func(a, b int) bool { return reach[p.piOrder[a]] > reach[p.piOrder[b]] })
	return nil
}

// Budget converts a delay-penalty fraction into an absolute delay bound.
func (p *Problem) Budget(penalty float64) float64 {
	return sta.Constraint(p.Dmin, p.Dmax, penalty)
}

// Counters are the additive search counters, declared once as
// checkpoint.Stats so snapshots and the cluster wire carry the very struct
// the search fills.
type Counters = checkpoint.Stats

// SearchStats instruments a search (paper figure 4's two-tree structure):
// the additive Counters plus the per-run outcome.
type SearchStats struct {
	Counters
	Runtime time.Duration
	// Interrupted reports that the search was cut short — by context
	// cancellation, an expired time limit or an exhausted leaf budget —
	// so the solution is the best found rather than the search's fixpoint.
	Interrupted bool
	// WorkerFailures records every worker that died (panic or leaf
	// evaluation error) during the search, including failures carried over
	// from resumed runs.  A non-empty list with a nil Solve error means the
	// search degraded gracefully: surviving workers re-ran the dead
	// workers' subtrees.
	WorkerFailures []WorkerFailure
	// CheckpointWrites and CheckpointErrors count snapshot write attempts;
	// write failures are non-fatal (the search keeps running and retries at
	// the next interval), so errors surface here instead of aborting.
	CheckpointWrites int64
	CheckpointErrors int64
	// Resumed reports that this run continued from a checkpoint snapshot
	// rather than starting fresh; PriorRuntime is the wall clock the
	// crashed run(s) had already spent (included in Runtime).  Together
	// they let serving layers distinguish a clean result from one stitched
	// across process restarts.
	Resumed      bool
	PriorRuntime time.Duration
}

// WorkerFailure describes one worker death during a tree search, declared
// once as checkpoint.WorkerFailure so snapshots carry the very struct.
type WorkerFailure = checkpoint.WorkerFailure

// Solution is a complete standby assignment.
type Solution struct {
	// State[i] is the sleep value of primary input i.
	State []bool
	// Choices[g] is the selected version choice of gate g (in compiled
	// gate order).
	Choices []*library.Choice
	// Leak is the total standby leakage (nA); Isub its subthreshold part.
	Leak, Isub float64
	// Delay is the circuit delay (ps) under the chosen versions.
	Delay float64
	Stats SearchStats
}

// gateStates simulates the circuit and returns each gate's input state.
func (p *Problem) gateStates(state []bool) ([]uint, error) {
	vals := make([]uint64, p.CC.NumNets())
	if err := sim.EvalInto(p.CC, state, vals); err != nil {
		return nil, err
	}
	states := make([]uint, len(p.CC.Gates))
	for gi := range p.CC.Gates {
		states[gi] = sim.GateState(&p.CC.Gates[gi], vals, 0)
	}
	return states, nil
}

// leakOf sums total and subthreshold leakage of an assignment.
func leakOf(choices []*library.Choice) (leak, isub float64) {
	for _, ch := range choices {
		leak += ch.Leak
		isub += ch.Isub
	}
	return leak, isub
}

// AverageRandomLeak estimates the expected standby leakage with no state,
// Vt or Tox assignment at all (all-fast cells, random states) — the
// reference column of the paper's tables.  Returns nA.
//
// The vectors are sim.RandomVectors(seed, inputs, vectors), simulated 64 at
// a time, one per lane of the net words.  The sum runs in the order of a
// per-vector loop (vector-major, gates in compiled order), so the result is
// bit-identical to one; memory is O(nets + 64·gates) whatever the count.
func (p *Problem) AverageRandomLeak(seed int64, vectors int) (float64, error) {
	if vectors <= 0 {
		return 0, fmt.Errorf("core: need at least one vector")
	}
	cc := p.CC
	leak := make([][]float64, len(cc.Gates))
	for gi := range leak {
		leak[gi] = p.Timer.Cells[gi].Fast().Leak
	}
	rng := rand.New(rand.NewSource(seed))
	pi := make([]uint64, len(cc.PI))
	vals := make([]uint64, cc.NumNets())
	// states[lane*stride+gi] is gate gi's state in lane; rows are padded
	// to whole 8-gate words.
	stride := (len(cc.Gates) + 7) &^ 7
	states := make([]uint8, 64*stride)
	var lanes [64]uint64
	total := 0.0
	for done := 0; done < vectors; done += 64 {
		n := min(64, vectors-done)
		sim.RandomWords(rng, pi, n)
		if err := sim.EvalWords(cc, pi, vals); err != nil {
			return 0, err
		}
		for g0 := 0; g0 < len(cc.Gates); g0 += 8 {
			sim.LaneStates(cc.Gates[g0:min(g0+8, len(cc.Gates))], vals, &lanes)
			for lane, w := range lanes {
				binary.LittleEndian.PutUint64(states[lane*stride+g0:], w)
			}
		}
		for lane := range n {
			row := states[lane*stride:]
			for gi, tab := range leak {
				total += tab[row[gi]]
			}
		}
	}
	return total / float64(vectors), nil
}

// AllSlowLeak returns the total leakage when every gate uses the all-slow
// (high-Vt + thick-Tox) version under the given state: the unknown-state
// fallback design point (100% delay penalty).
func (p *Problem) AllSlowLeak(state []bool) (float64, error) {
	states, err := p.gateStates(state)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for gi, s := range states {
		total += p.Timer.Cells[gi].Slow.Leak[s]
	}
	return total, nil
}

// evalState runs the greedy gate-tree descent for a complete input state
// and packages the result.  One-shot callers (Heuristic 1, the tree-search
// seed) pay a fresh timing analysis and arena here; the search workers use
// the same arena machinery with per-worker reused buffers instead.
func (p *Problem) evalState(state []bool, budget float64, stats *Counters) (*Solution, error) {
	st, err := p.Timer.NewState(p.Timer.FastChoices())
	if err != nil {
		return nil, err
	}
	a := p.newLeafArena()
	if err := p.gateStatesInto(a, state); err != nil {
		return nil, err
	}
	leak, isub, delay := p.evalStateArena(st, a, budget, nil, stats)
	return &Solution{
		State:   append([]bool(nil), state...),
		Choices: append([]*library.Choice(nil), a.choices...),
		Leak:    leak,
		Isub:    isub,
		Delay:   delay,
	}, nil
}

// newBoundEngine builds the incremental 3-valued bound engine over the
// problem's objective tables: per-gate contribution minChoice[g][s] when the
// gate state is known, minAny[g] otherwise — the same admissible bound
// stateBound computes by full re-simulation, maintained event-driven so one
// Assign costs O(affected fanout cone) instead of O(circuit).  A non-nil rx
// adds its choice-elimination tables as the engine's second table, the
// relaxation stage of the bound cascade.
func (p *Problem) newBoundEngine(rx *relax.Engine) (*sim.Inc3, error) {
	if rx != nil {
		return sim.NewInc3Pair(p.CC, p.minChoice, p.minAny, rx.Known, rx.Unknown)
	}
	return sim.NewInc3(p.CC, p.minChoice, p.minAny)
}

// branch is one child of a state-tree node: the value its input takes and
// the admissible bounds of the extended partial assignment — the cheap
// bound, and the relaxation bound of an engine with a second table (0
// otherwise).
type branch struct {
	v     sim.Value
	bound float64
	relax float64
}

// probeBranches is the one bound probe of every state-tree descent: both
// children of the node that assigns input idx, bounded by an
// Assign/Bounds/Undo triple each on eng (touching only the input's fanout
// cone) and returned tighter cheap bound first, False on a tie.
func probeBranches(eng *sim.Inc3, idx int) [2]branch {
	bs := [2]branch{{v: sim.False}, {v: sim.True}}
	for k := range bs {
		eng.Assign(idx, bs[k].v)
		bs[k].bound, bs[k].relax = eng.Bounds()
		eng.Undo()
	}
	if bs[1].bound < bs[0].bound {
		bs[0], bs[1] = bs[1], bs[0]
	}
	return bs
}

// seedBoundEngine is newBoundEngine in coarse mode, for heuristic-1's
// greedy state descent.  A tighter bound is strictly better for pruning but
// not for greedy guidance — the bound is a proxy for the completion's cost,
// and the pattern minimum's extra sharpness empirically misleads the
// one-step lookahead (on c432 it lands the descent on a ~16% worse vector).
// The descent therefore keeps the classic coarse bound the paper's
// heuristic was built on, while the tree searches' pruning engine
// (newBoundEngine) uses the pattern minimum.
func (p *Problem) seedBoundEngine() (*sim.Inc3, error) {
	return sim.NewInc3Coarse(p.CC, p.minChoice, p.minAny)
}

// relaxEngine returns the choice-elimination bound engine for the given
// delay budget, building (and caching) it on first use.  It returns nil — no
// engine, zero probe overhead — when the budget is loose enough that every
// gate's cheapest choice is acceptable, so the engine cannot improve on the
// cheap minChoice/minAny bound anywhere.  A ctx cancellation or deadline abandons
// the build and degrades to the cheap bound (nil engine, nil error) without
// caching, so a later search with time to spare rebuilds.
func (p *Problem) relaxEngine(ctx context.Context, budget float64) (*relax.Engine, error) {
	key := math.Float64bits(budget)
	p.relaxMu.Lock()
	defer p.relaxMu.Unlock()
	if eng, ok := p.relaxCache[key]; ok {
		return eng, nil
	}
	eng, err := relax.Build(p.Timer, relax.Config{
		Obj:      p.objOf,
		Budget:   budget,
		DelayEps: DelayEps,
		Ctx:      ctx,
	})
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, nil
		}
		return nil, err
	}
	if !eng.Improved() {
		eng = nil
	}
	if p.relaxCache == nil {
		p.relaxCache = make(map[uint64]*relax.Engine)
	}
	p.relaxCache[key] = eng
	return eng, nil
}

// fastTables builds the state-only baseline's contribution tables: every
// gate pinned to its fastest version, so the per-state contribution is the
// fast version's leakage there (and its minimum over states while the gate
// state is unknown).
func (p *Problem) fastTables() (known [][]float64, unknown []float64) {
	known = make([][]float64, len(p.CC.Gates))
	unknown = make([]float64, len(p.CC.Gates))
	for gi := range p.CC.Gates {
		leaks := p.Timer.Cells[gi].Fast().Leak
		known[gi] = leaks
		m := leaks[0]
		for _, l := range leaks[1:] {
			if l < m {
				m = l
			}
		}
		unknown[gi] = m
	}
	return known, unknown
}

// fastBoundEngine is the state-only baseline's variant of the bound engine,
// over the fastTables contributions.  It uses the coarse (any X → row
// minimum) bound: the baseline reproduces the prior state-assignment
// approach, so its greedy guidance must match that work's published bound,
// not the tighter pattern minimum the optimizer's own engines use.
func (p *Problem) fastBoundEngine() (*sim.Inc3, error) {
	known, unknown := p.fastTables()
	return sim.NewInc3Coarse(p.CC, known, unknown)
}

// stateBound computes the admissible leakage lower bound for a partial
// input assignment using 3-valued simulation: gates with a known input
// state contribute their best choice there; partially known gates the
// minimum over states consistent with the assigned inputs; fully unknown
// gates their global best (paper section 5, bounds with partial state
// information).
//
// This is the slow-path reference of the incremental engine built by
// newBoundEngine: the searches evaluate branch bounds with sim.Inc3, and
// tests cross-check the two bit for bit.
func (p *Problem) stateBound(pi []sim.Value) (float64, error) {
	vals, err := sim.Eval3(p.CC, pi)
	if err != nil {
		return 0, err
	}
	bound := 0.0
	for gi := range p.CC.Gates {
		g := &p.CC.Gates[gi]
		state, xmask := sim.GateState3(g, vals)
		switch {
		case xmask == 0:
			bound += p.minChoice[gi][state]
		case xmask == (uint(1)<<uint(len(g.In)))-1:
			bound += p.minAny[gi]
		default:
			bound += sim.PatternMin(p.minChoice[gi], state, xmask)
		}
	}
	return bound, nil
}
