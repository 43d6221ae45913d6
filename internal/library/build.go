package library

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"svto/internal/cell"
	"svto/internal/spnet"
	"svto/internal/tech"
)

// netCombo is one candidate corner assignment for a single pull network in
// a single state, with its characterization.
type netCombo struct {
	corners []tech.Corner
	leak    cell.NetworkLeak
	factors []float64 // per-pin normalized delay factors of this network's arc
	slow    int       // number of non-fast corners
	order   int       // enumeration order, for deterministic tie-breaking
}

func (c *netCombo) minFactor() float64 {
	m := math.Inf(1)
	for _, f := range c.factors {
		m = math.Min(m, f)
	}
	return m
}

func (c *netCombo) factorSum() float64 {
	s := 0.0
	for _, f := range c.factors {
		s += f
	}
	return s
}

// Build constructs the full library for the given process and policy, using
// the standard template set.
func Build(p *tech.Params, opt Options) (*Library, error) {
	return BuildFrom(p, opt, cell.StandardTemplates())
}

// BuildFrom constructs a library from an explicit template list.  Cells are
// characterized concurrently (they are independent); the result is
// deterministic regardless of scheduling.
func BuildFrom(p *tech.Params, opt Options, templates []*cell.Template) (*Library, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	cells := make([]*Cell, len(templates))
	errs := make([]error, len(templates))
	var wg sync.WaitGroup
	for i, tpl := range templates {
		wg.Add(1)
		go func(i int, tpl *cell.Template) {
			defer wg.Done()
			c, err := BuildCell(p, opt, tpl)
			if err != nil {
				errs[i] = fmt.Errorf("library: building %s: %w", tpl.Name, err)
				return
			}
			cells[i] = c
		}(i, tpl)
	}
	wg.Wait()
	lib := &Library{Tech: p, Opt: opt, Cells: make(map[string]*Cell, len(templates))}
	for i, tpl := range templates {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if _, dup := lib.Cells[tpl.Name]; dup {
			return nil, fmt.Errorf("library: duplicate cell %s", tpl.Name)
		}
		lib.Cells[tpl.Name] = cells[i]
	}
	lib.Names = sortedNames(lib.Cells)
	return lib, nil
}

// choiceRec is an intermediate per-state choice before characterization.
type choiceRec struct {
	versionIdx    int
	perm          []int
	kind          OptionKind
	templateState uint
}

// BuildCell generates the version set and per-state choices for one cell
// archetype, following the paper's section 4 procedure.
func BuildCell(p *tech.Params, opt Options, tpl *cell.Template) (*Cell, error) {
	if err := tpl.Validate(); err != nil {
		return nil, err
	}
	numStates := tpl.NumStates()

	// Characterize every candidate corner assignment of each network in
	// each state.  The pull-up and pull-down are electrically independent
	// once the state fixes the output, so they are enumerated separately;
	// states are characterized concurrently.
	upCombos := make([][]netCombo, numStates)
	downCombos := make([][]netCombo, numStates)
	stateErrs := make([]error, numStates)
	var wg sync.WaitGroup
	for s := 0; s < numStates; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var err error
			if upCombos[s], err = enumCombos(p, opt, tpl, true, uint(s)); err != nil {
				stateErrs[s] = err
				return
			}
			downCombos[s], stateErrs[s] = enumCombos(p, opt, tpl, false, uint(s))
		}(s)
	}
	wg.Wait()
	for _, err := range stateErrs {
		if err != nil {
			return nil, err
		}
	}

	c := &Cell{Template: tpl}
	addVersion := func(a cell.Assignment) int {
		for _, v := range c.Versions {
			if v.Assign.Equal(a) {
				return v.Index
			}
		}
		v := &Version{Index: len(c.Versions), Assign: a.Clone()}
		c.Versions = append(c.Versions, v)
		return v.Index
	}
	hasVersion := func(a cell.Assignment) bool {
		for _, v := range c.Versions {
			if v.Assign.Equal(a) {
				return true
			}
		}
		return false
	}
	addVersion(tpl.FastAssignment()) // version 0

	// Every state gets the min-delay choice on the fast version.
	recs := make([][]choiceRec, numStates)
	for s := 0; s < numStates; s++ {
		recs[s] = append(recs[s], choiceRec{versionIdx: 0, kind: KindMinDelay, templateState: uint(s)})
	}

	classes, perms := stateClasses(tpl.SymGroups, tpl.NumInputs)
	// Process classes in descending order of their worst fast-version
	// leakage: high-leakage states need the most devices assigned, and
	// later (milder) states can then share the versions they created.
	classLeak := func(members []uint) float64 {
		worst := 0.0
		for _, s := range members {
			l := upCombos[s][0].leak.Total() + downCombos[s][0].leak.Total()
			worst = math.Max(worst, l)
		}
		return worst
	}
	sort.SliceStable(classes, func(i, j int) bool {
		li, lj := classLeak(classes[i]), classLeak(classes[j])
		if li != lj {
			return li > lj
		}
		return classes[i][0] > classes[j][0]
	})

	kinds := []OptionKind{KindMinLeak}
	if opt.TradeoffPoints == 4 {
		kinds = append(kinds, KindFastFall, KindFastRise)
	}

	for _, members := range classes {
		for _, kind := range kinds {
			winner, ok := selectWinner(opt, members, kind, upCombos, downCombos, hasVersion)
			if !ok {
				continue
			}
			assign := cell.Assignment{Up: winner.up.corners, Down: winner.down.corners}.Clone()
			vi := addVersion(assign)
			for _, s := range members {
				pi := findPerm(perms, s, winner.state)
				if pi == nil {
					return nil, fmt.Errorf("library %s: no permutation from state %d to %d", tpl.Name, s, winner.state)
				}
				recs[s] = append(recs[s], choiceRec{
					versionIdx:    vi,
					perm:          pi,
					kind:          kind,
					templateState: winner.state,
				})
			}
		}
	}

	enum := enumerated{up: upCombos, down: downCombos}
	if err := characterizeVersions(p, tpl, c.Versions, enum); err != nil {
		return nil, err
	}
	slow := &Version{Index: -1, Name: tpl.Name + "_slow", Assign: tpl.SlowAssignment()}
	if err := characterizeVersion(p, tpl, slow, enum); err != nil {
		return nil, err
	}
	c.Slow = slow

	// Assemble, dedup and sort per-state choices.
	c.Choices = make([][]Choice, numStates)
	for s := 0; s < numStates; s++ {
		seen := map[[2]int]bool{}
		for _, r := range recs[s] {
			key := [2]int{r.versionIdx, int(r.templateState)}
			if seen[key] {
				continue
			}
			seen[key] = true
			v := c.Versions[r.versionIdx]
			perm := r.perm
			if perm != nil && isIdentity(perm) {
				perm = nil
			}
			c.Choices[s] = append(c.Choices[s], Choice{
				Version:       v,
				Perm:          perm,
				Kind:          r.kind,
				TemplateState: r.templateState,
				Leak:          v.Leak[r.templateState],
				Isub:          v.Isub[r.templateState],
			})
		}
		sort.SliceStable(c.Choices[s], func(i, j int) bool {
			a, b := &c.Choices[s][i], &c.Choices[s][j]
			if a.Leak != b.Leak {
				return a.Leak < b.Leak
			}
			return a.Version.Index < b.Version.Index
		})
		for i := range c.Choices[s] {
			ch := &c.Choices[s][i]
			ch.Arcs = make([]*cell.PinTiming, tpl.NumInputs)
			for pin := 0; pin < tpl.NumInputs; pin++ {
				ch.Arcs[pin] = &ch.Version.Timing[ch.TemplatePin(pin)]
			}
		}
	}
	return c, nil
}

// candidate is a (state, up-combo, down-combo) triple under evaluation.
type candidate struct {
	state    uint
	up, down *netCombo
	leak     float64
	memberIx int
}

// selectWinner picks the best (state, up, down) combination for one
// trade-off kind across a symmetry class of states, applying the leakage
// tolerance and the tie-breaking rules that produce the paper's version
// sharing.
func selectWinner(opt Options, members []uint, kind OptionKind, upCombos, downCombos [][]netCombo, hasVersion func(cell.Assignment) bool) (candidate, bool) {
	constrainUp := kind == KindFastRise
	constrainDown := kind == KindFastFall

	var cands []candidate
	minLeak := math.Inf(1)
	for mi, s := range members {
		ups := filterCombos(upCombos[s], constrainUp)
		downs := filterCombos(downCombos[s], constrainDown)
		for _, u := range ups {
			for _, d := range downs {
				cand := candidate{state: s, up: u, down: d, leak: u.leak.Total() + d.leak.Total(), memberIx: mi}
				cands = append(cands, cand)
				minLeak = math.Min(minLeak, cand.leak)
			}
		}
	}
	if len(cands) == 0 {
		return candidate{}, false
	}
	tol := math.Max(opt.LeakTolAbs, opt.LeakTolRel*minLeak)
	best := candidate{}
	bestRank := rank{}
	found := false
	for _, cand := range cands {
		if cand.leak > minLeak+tol {
			continue
		}
		r := rank{
			existing:  0,
			slow:      cand.up.slow + cand.down.slow,
			factorSum: cand.up.factorSum() + cand.down.factorSum(),
			leak:      cand.leak,
			member:    cand.memberIx,
			order:     cand.up.order*1000 + cand.down.order,
		}
		if hasVersion(cell.Assignment{Up: cand.up.corners, Down: cand.down.corners}) {
			r.existing = -1
		}
		if !found || r.less(bestRank) {
			best, bestRank, found = cand, r, true
		}
	}
	return best, found
}

// rank orders tolerance-equivalent candidates: reuse an existing version
// first, then fewest slow devices, smallest delay impact, lowest leakage,
// and finally stable enumeration order.
type rank struct {
	existing  int
	slow      int
	factorSum float64
	leak      float64
	member    int
	order     int
}

func (r rank) less(o rank) bool {
	switch {
	case r.existing != o.existing:
		return r.existing < o.existing
	case r.slow != o.slow:
		return r.slow < o.slow
	case r.factorSum != o.factorSum:
		return r.factorSum < o.factorSum
	case r.leak != o.leak:
		return r.leak < o.leak
	case r.member != o.member:
		return r.member < o.member
	default:
		return r.order < o.order
	}
}

// filterCombos returns pointers to the combos usable for a kind: when
// constrained, only combos keeping at least one arc of this network at
// nominal delay survive (the "fast fall"/"fast rise" requirement).
func filterCombos(combos []netCombo, constrained bool) []*netCombo {
	out := make([]*netCombo, 0, len(combos))
	for i := range combos {
		if constrained && combos[i].minFactor() > 1+1e-9 {
			continue
		}
		out = append(out, &combos[i])
	}
	return out
}

// enumCombos enumerates the role-respecting corner assignments of one pull
// network in one state and characterizes each.  The key observation of the
// paper prunes the space: OFF devices only ever get high-Vt, ON devices only
// ever get thick-Tox, so no device needs more than two candidate corners
// (plus the slow corner for mixed uniform stacks).
func enumCombos(p *tech.Params, opt Options, tpl *cell.Template, up bool, state uint) ([]netCombo, error) {
	net := tpl.Network(up)
	nDev := len(net.Devices)

	// Map each device to the pin driving it.
	gateOf := make([]int, nDev)
	net.ForEachDevice(func(r spnet.DevRef) { gateOf[r.Index] = r.Gate })

	isOn := func(dev int) bool {
		bit := state>>uint(gateOf[dev])&1 == 1
		if net.Devices[dev].Kind == tech.PMOS {
			return !bit
		}
		return bit
	}
	// A device's gate tunneling matters only for NMOS, or for PMOS when
	// the process has appreciable PMOS gate leakage.
	gateLeaky := func(dev int) bool {
		return net.Devices[dev].Kind == tech.NMOS || p.PMOSGateScale > 0
	}

	type unit struct {
		devs  []int
		cands []tech.Corner
	}
	var units []unit
	addUnit := func(devs []int) {
		anyOff, anyOnLeaky := false, false
		for _, d := range devs {
			if isOn(d) {
				anyOnLeaky = anyOnLeaky || gateLeaky(d)
			} else {
				anyOff = true
			}
		}
		cands := []tech.Corner{tech.FastCorner}
		if anyOff {
			cands = append(cands, tech.LowIsubCorner)
		}
		if anyOnLeaky && !opt.VtOnly {
			cands = append(cands, tech.LowIgateCorner)
		}
		if anyOff && anyOnLeaky && !opt.VtOnly {
			cands = append(cands, tech.SlowCorner)
		}
		units = append(units, unit{devs: devs, cands: cands})
	}
	if opt.UniformStack {
		for _, group := range net.StackGroups() {
			addUnit(group)
		}
	} else {
		for d := 0; d < nDev; d++ {
			addUnit([]int{d})
		}
	}

	// Cartesian product over unit candidates.
	var combos []netCombo
	idx := make([]int, len(units))
	for {
		corners := make([]tech.Corner, nDev)
		slow := 0
		for ui, u := range units {
			corner := u.cands[idx[ui]]
			for _, d := range u.devs {
				corners[d] = corner
				if !corner.IsFast() {
					slow++
				}
			}
		}
		leak, err := tpl.CharacterizeNetwork(p, up, state, corners)
		if err != nil {
			return nil, err
		}
		combos = append(combos, netCombo{
			corners: corners,
			leak:    leak,
			factors: tpl.NetworkDelayFactors(p, up, corners),
			slow:    slow,
			order:   len(combos),
		})
		// Advance the mixed-radix counter; first unit varies slowest so
		// the all-fast combo is always combos[0].
		i := len(units) - 1
		for i >= 0 {
			idx[i]++
			if idx[i] < len(units[i].cands) {
				break
			}
			idx[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	return combos, nil
}

// enumerated holds, per state, the network solves enumCombos made for one
// cell, so that characterizing a version solves only the networks
// enumeration never saw.  It lives for one cell build and is only read.
type enumerated struct {
	up, down [][]netCombo
}

// leakage returns what tpl.CharacterizeLeakage(p, state, a) returns, bit for
// bit: the same two network solves and the same Igate addition.
func (e enumerated) leakage(p *tech.Params, tpl *cell.Template, state uint, a cell.Assignment) (cell.Leakage, error) {
	up, err := solved(p, tpl, true, state, a.Up, e.up[state])
	if err != nil {
		return cell.Leakage{}, err
	}
	down, err := solved(p, tpl, false, state, a.Down, e.down[state])
	if err != nil {
		return cell.Leakage{}, err
	}
	return cell.Leakage{IsubUp: up.Isub, IsubDown: down.Isub, Igate: up.Igate + down.Igate}, nil
}

// solved returns one network's leakage in one state: the enumerated combo's
// when one has these corners, a fresh solve otherwise.
func solved(p *tech.Params, tpl *cell.Template, up bool, state uint, corners []tech.Corner, combos []netCombo) (cell.NetworkLeak, error) {
	for i := range combos {
		if slices.Equal(combos[i].corners, corners) {
			return combos[i].leak, nil
		}
	}
	return tpl.CharacterizeNetwork(p, up, state, corners)
}

// characterizeVersions fills in the full characterization of each version,
// concurrently (versions are independent).
func characterizeVersions(p *tech.Params, tpl *cell.Template, versions []*Version, enum enumerated) error {
	errs := make([]error, len(versions))
	var wg sync.WaitGroup
	for i, v := range versions {
		// Not fmt.Sprintf: its printer pool allocates or not depending on
		// scheduling and GC timing, which made allocs/op vary run to run.
		v.Name = tpl.Name + "_v" + strconv.Itoa(i)
		wg.Add(1)
		go func(i int, v *Version) {
			defer wg.Done()
			errs[i] = characterizeVersion(p, tpl, v, enum)
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func characterizeVersion(p *tech.Params, tpl *cell.Template, v *Version, enum enumerated) error {
	numStates := tpl.NumStates()
	v.Leak = make([]float64, numStates)
	v.Isub = make([]float64, numStates)
	for s := 0; s < numStates; s++ {
		lk, err := enum.leakage(p, tpl, uint(s), v.Assign)
		if err != nil {
			return err
		}
		v.Leak[s] = lk.Total()
		v.Isub[s] = lk.IsubUp + lk.IsubDown
	}
	v.Timing = tpl.Timing(p, v.Assign)
	v.PinCap = make([]float64, tpl.NumInputs)
	for pin := 0; pin < tpl.NumInputs; pin++ {
		v.PinCap[pin] = tpl.PinCap(p, pin, v.Assign)
	}
	v.RiseFactor = tpl.NetworkDelayFactors(p, true, v.Assign.Up)
	v.FallFactor = tpl.NetworkDelayFactors(p, false, v.Assign.Down)
	v.MaxFactor = 1
	for pin := 0; pin < tpl.NumInputs; pin++ {
		v.MaxFactor = math.Max(v.MaxFactor, math.Max(v.RiseFactor[pin], v.FallFactor[pin]))
	}
	return nil
}

// --- build cache ---

type cacheKey struct {
	p   tech.Params // by value: two equal parameter sets share a build
	opt Options
}

// cacheEntry is one key's build: once runs it, so concurrent callers of
// one key wait for a single build while distinct keys build concurrently.
type cacheEntry struct {
	once sync.Once
	lib  *Library
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[cacheKey]*cacheEntry{}
)

// Cached returns a memoized library build for the given process and policy.
// Libraries are immutable after construction, so sharing is safe.  Each
// key is built at most once per process, its error included: Build is a
// pure function of its arguments.
func Cached(p *tech.Params, opt Options) (*Library, error) {
	key := cacheKey{*p, opt}
	cacheMu.Lock()
	e, ok := cache[key]
	if !ok {
		e = &cacheEntry{}
		cache[key] = e
	}
	cacheMu.Unlock()
	e.once.Do(func() { e.lib, e.err = Build(p, opt) })
	return e.lib, e.err
}
