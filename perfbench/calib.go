package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The calibration kernel is fixed code of the benchmark's own, timed next to
// the solves so solve times can be read at a reference host speed.  On a
// shared host, tenants slow identical work by 20-50% for stretches of
// seconds to minutes.  Latency-bound loops (a dependent multiply chain,
// pointer chasing) barely notice; branchy, instruction-parallel code like
// the solver's does.  The kernel therefore mixes a sort, hash-map traffic
// and independent arithmetic chains, all within the L2 cache.
//
// It is timed in one of two ways.  When the workload's solves leave a CPU
// idle, a sampler runs one kernel unit on it every calibPeriod for the
// whole run, so every solve and set-up is read against the host speed of
// its own stretch of time, however long it runs.  Otherwise a burst of
// kernel units runs right after each solve, on as many goroutines as the
// solve had workers, since a multi-worker solve is slowed as well when the
// host takes any one of its CPUs away.

const (
	calibSortN = 2048
	calibMapN  = 4096
	calibILP   = 100_000
	// calibRefS and calibSampleRefS are the kernel's time per unit in a
	// burst and in the sampler on an uncontended 2-vCPU x86-64 host (Go
	// 1.24).  A lone unit after an idle wait runs colder than units back to
	// back.  A calibrated time is a wall-clock time scaled by the reference
	// ÷ the measured time per unit, so it reads as seconds at that speed.
	// Both are fixed constants: changing one rescales calibrated times.
	calibRefS       = 0.40e-3
	calibSampleRefS = 0.50e-3
	// calibShare is the burst time run after each solve, as a share of the
	// solve's time.
	calibShare = 0.3
	// calibPeriod is the sampler's interval: one unit per period keeps it
	// at about 5% of the idle CPU.
	calibPeriod = 10 * time.Millisecond
	// calibSpan is the least stretch of time whose samples one calibrated
	// time uses; a shorter solve is read against the span centred on it.
	calibSpan = 250 * time.Millisecond
)

// kernel holds one goroutine's calibration buffers, allocated once, so the
// kernel itself allocates nothing.
type kernel struct {
	src  []int
	buf  []int
	m    map[int]int
	sink uint64
}

func newKernel() *kernel {
	r := rand.New(rand.NewSource(1))
	k := &kernel{src: make([]int, calibSortN), buf: make([]int, calibSortN), m: make(map[int]int, calibMapN)}
	for i := range k.src {
		k.src[i] = r.Int()
	}
	return k
}

// unit runs one unit of kernel work.
func (k *kernel) unit() {
	copy(k.buf, k.src)
	sort.Ints(k.buf)
	clear(k.m)
	for i := 0; i < calibMapN; i++ {
		k.m[k.src[i%calibSortN]&0x7ff] += i
	}
	s := 0
	for i := 0; i < calibMapN; i++ {
		s += k.m[k.buf[i%calibSortN]&0x3ff]
	}
	a, b, d, e := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < calibILP; i++ {
		a = a*6364136223846793005 + 1
		b = b*6364136223846793005 + 3
		d ^= d<<13 ^ a
		e ^= e>>7 ^ b
	}
	k.sink += a ^ b ^ d ^ e ^ uint64(s)
}

// calibrator runs kernel bursts on up to len(ks) goroutines.
type calibrator struct {
	ks []*kernel
}

func newCalibrator() *calibrator {
	return &calibrator{}
}

// measure runs whole units on par goroutines at once, each for at least
// share × the given solve time (one unit at least), and returns the mean
// time one goroutine took per unit.  It first finishes any garbage
// collection the solve left pending, so a solve that allocates more cannot
// slow the kernel, and thereby shrink its own calibrated time, through
// collector work running next to it.
func (c *calibrator) measure(solve time.Duration, par int) float64 {
	par = max(par, 1)
	for len(c.ks) < par {
		c.ks = append(c.ks, newKernel())
	}
	runtime.GC()
	want := time.Duration(calibShare * float64(solve))
	units := make([]int, par)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func(k *kernel, n *int) {
			defer wg.Done()
			for {
				k.unit()
				*n++
				if time.Since(start) >= want {
					return
				}
			}
		}(c.ks[i], &units[i])
	}
	wg.Wait()
	el := time.Since(start)
	total := 0
	for _, n := range units {
		total += n
	}
	return el.Seconds() * float64(par) / float64(total)
}

// sampler times one kernel unit every calibPeriod on its own goroutine
// until stopped.  Its samples are read only after stop returns.
type sampler struct {
	k       *kernel
	quit    chan struct{}
	done    chan struct{}
	stopped bool
	at      []time.Time // when each unit started
	unitS   []float64   // how long it took
}

func startSampler() *sampler {
	s := &sampler{k: newKernel(), quit: make(chan struct{}), done: make(chan struct{})}
	go s.run()
	return s
}

func (s *sampler) run() {
	defer close(s.done)
	t := time.NewTicker(calibPeriod)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		start := time.Now()
		s.k.unit()
		s.at = append(s.at, start)
		s.unitS = append(s.unitS, time.Since(start).Seconds())
	}
}

// stop lets the sampler cover half a span past the last timed stretch,
// then stops it and waits for its goroutine to end.  Later calls do nothing.
func (s *sampler) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	time.Sleep(calibSpan / 2)
	close(s.quit)
	<-s.done
}

// unitOver is the median time per unit of the samples taken while a
// stretch of time ran, widened to at least calibSpan and, should the
// sampler have been starved, further until it holds a sample.  With no
// samples at all it returns the reference, leaving times uncalibrated.
func (s *sampler) unitOver(start time.Time, d time.Duration) float64 {
	if len(s.at) == 0 {
		return calibSampleRefS
	}
	pad := max(calibSpan-d, 0) / 2
	for {
		lo, hi := start.Add(-pad), start.Add(d+pad)
		i := sort.Search(len(s.at), func(i int) bool { return !s.at[i].Before(lo) })
		j := sort.Search(len(s.at), func(i int) bool { return s.at[i].After(hi) })
		if i < j {
			return median(s.unitS[i:j])
		}
		pad = 2*pad + calibPeriod
	}
}
