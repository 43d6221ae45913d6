// Package checkpoint persists the state of a long-running tree search so a
// killed process (OOM, SIGKILL, node preemption, Ctrl-C) can resume instead
// of rediscovering hours of pruned search tree.
//
// A snapshot is a single self-contained binary file:
//
//	magic "SVTOCKPT" | version u32 | payload length u64 | payload | CRC-32 u32
//
// The payload carries a fingerprint of (circuit, library, search options),
// the incumbent solution in pointer-free (state, index) choice coordinates,
// the aggregated search counters, the consumed leaf-budget tickets, the
// elapsed wall clock, any recorded worker failures, and the unexplored
// search frontier.  All integers are little-endian; floats are stored as
// their IEEE-754 bit patterns so a resumed incumbent is bit-identical.
//
// Writes are atomic: the snapshot is serialized to a temporary file in the
// destination directory, fsynced, closed, and renamed over the destination,
// so a crash mid-write leaves either the previous snapshot or none — never
// a torn one.  Reads verify magic, version, length and CRC before decoding,
// so a torn or bit-rotted file fails with ErrCorrupt instead of resuming a
// garbage search.  The filesystem is reached through the FS interface so
// tests can inject write failures.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

var (
	// ErrCorrupt reports a snapshot that failed structural validation:
	// bad magic, torn payload, CRC mismatch, or out-of-range field.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
)

const (
	magic = "SVTOCKPT"
	// Version is the current snapshot format version.  Bump it whenever
	// the payload layout changes; old files then fail with ErrVersion
	// instead of being misdecoded.
	//
	// History: 2 added BatchSweeps/BatchLanes to Stats.  3 added the
	// relaxation/portfolio counters and a Lagrangian multiplier cache as
	// trailing sections.  4 dropped the multiplier cache.  Only version 4
	// is read.
	Version = 4

	// maxCount bounds every length read from a snapshot, so a corrupt
	// length field fails validation instead of attempting a huge
	// allocation.
	maxCount = 1 << 26
)

// Stats holds the additive search counters.  It is the single definition
// of them: the search engine embeds it (core.Counters), snapshots persist
// it, and cluster shards report it per lease under the JSON names below.
// Counters add across workers, shards and resume cycles, so every merge is
// an Add.
type Stats struct {
	StateNodes int64 `json:"state_nodes,omitempty"` // state-tree nodes visited
	GateTrials int64 `json:"gate_trials,omitempty"` // gate-tree version trials (incl. rejected)
	Leaves     int64 `json:"leaves,omitempty"`      // complete states evaluated with a gate-tree descent
	Pruned     int64 `json:"pruned,omitempty"`      // state-tree branches cut by a bound
	// LeafCacheHits, BatchSweeps, BatchLanes and PortfolioWins are
	// retired: they counted a leaf memo, a 64-lane bound evaluator and a
	// racing solver portfolio the search no longer has, and are always
	// zero.  They stay because the version 4 layout stores them.
	LeafCacheHits int64 `json:"leaf_cache_hits,omitempty"`
	BatchSweeps   int64 `json:"batch_sweeps,omitempty"`
	BatchLanes    int64 `json:"batch_lanes,omitempty"`
	// RelaxBounds counts choice-elimination bound probes (relax.Engine) —
	// branches that survived the cheap bound — and RelaxPruned the subset
	// those probes cut (included in Pruned).
	RelaxBounds int64 `json:"relax_bounds,omitempty"`
	RelaxPruned int64 `json:"relax_pruned,omitempty"`
	// PortfolioWins is retired (see LeafCacheHits).
	PortfolioWins int64 `json:"portfolio_wins,omitempty"`
}

// numStats is the number of counters in Stats.  The first leadStats are
// written before the failure list; the rest, added in version 3, trail
// the frontier and end the payload.
const (
	numStats  = 10
	leadStats = 7
)

// fields lists the counters in declaration (and snapshot) order.
func (s *Stats) fields() [numStats]*int64 {
	return [numStats]*int64{
		&s.StateNodes, &s.GateTrials, &s.Leaves, &s.Pruned, &s.LeafCacheHits,
		&s.BatchSweeps, &s.BatchLanes, &s.RelaxBounds, &s.RelaxPruned, &s.PortfolioWins,
	}
}

// Add adds every counter of o to s.
func (s *Stats) Add(o Stats) {
	dst, src := s.fields(), o.fields()
	for i, p := range dst {
		*p += *src[i]
	}
}

// Sub returns s - o, counter by counter.
func (s Stats) Sub(o Stats) Stats {
	dst, src := s.fields(), o.fields()
	for i, p := range dst {
		*p -= *src[i]
	}
	return s
}

// AtomicStats accumulates Stats lock-free, for totals that concurrent
// workers add to while others read them.
type AtomicStats [numStats]atomic.Int64

// Add adds d to the totals; zero counters cost nothing.
func (a *AtomicStats) Add(d Stats) {
	for i, p := range d.fields() {
		if *p != 0 {
			a[i].Add(*p)
		}
	}
}

// Load reads the totals.  Counters are read one at a time, so a Load racing
// an Add may see part of it.
func (a *AtomicStats) Load() Stats {
	var s Stats
	for i, p := range s.fields() {
		*p = a[i].Load()
	}
	return s
}

// WorkerFailure records one worker death (panic or leaf-evaluation error)
// from a previous run, so failures survive crash/resume cycles.
type WorkerFailure struct {
	Worker int32
	Err    string
	Stack  string
}

// Incumbent is the best solution found so far, in pointer-free form:
// Choices[g] = (instance state, index into the cell's per-state choice
// list) for gate g.  Snapshots and the cluster wire protocol carry the same
// encoding (JSON names below); the receiver re-resolves the coordinates
// against its own library and cross-checks the recorded leakage.
type Incumbent struct {
	State   []bool     `json:"state"`
	Choices [][2]int32 `json:"choices"`
	Leak    float64    `json:"leak_na"`
	Isub    float64    `json:"isub_na"`
	Delay   float64    `json:"delay_ps"`
}

// Snapshot is one consistent point of a search.
type Snapshot struct {
	// Fingerprint identifies the (circuit, library, options) the search
	// ran over; resume refuses a snapshot whose fingerprint disagrees.
	Fingerprint uint64
	// Elapsed is the cumulative search wall clock across all prior runs,
	// so time budgets continue rather than reset.
	Elapsed time.Duration
	// SplitDepth is the state-tree depth of the frontier vectors.
	SplitDepth int
	// LeavesUsed is the consumed MaxLeaves tickets, so leaf budgets
	// continue rather than reset.
	LeavesUsed int64
	Stats      Stats
	Failures   []WorkerFailure
	Incumbent  *Incumbent
	// Frontier holds the unexplored subtree prefixes, one vector per
	// task: values 0 (input forced false), 1 (true), 2 (unassigned).
	Frontier [][]byte
}

// File is the writable handle Save needs; *os.File satisfies it.
type File interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// FS abstracts the filesystem operations of Save/Load so fault-injection
// tests can fail any of them deterministically.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// OS is the real filesystem, used whenever no FS is injected.
var OS FS = osFS{}

// Save atomically writes the snapshot to path (see WriteFile).
func Save(fs FS, path string, snap *Snapshot) error {
	data := snap.marshal()
	err := WriteFile(fs, path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFile atomically replaces path with what write produces: temp file
// in the same directory, write, fsync, close, rename.  On any error the
// temp file is removed and the previous file (if any) is left untouched,
// so a crash mid-write never leaves a torn file.  A nil fs is the real
// filesystem.
func WriteFile(fs FS, path string, write func(io.Writer) error) error {
	if fs == nil {
		fs = OS
	}
	f, err := fs.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fs.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(fmt.Errorf("write: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("fsync: %w", err))
	}
	if err := f.Close(); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("close: %w", err)
	}
	if err := fs.Rename(tmp, path); err != nil {
		fs.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

// Load reads and validates a snapshot.  A missing file surfaces as an error
// satisfying errors.Is(err, os.ErrNotExist), so callers can distinguish
// "nothing to resume" from corruption.
func Load(fs FS, path string) (*Snapshot, error) {
	if fs == nil {
		fs = OS
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Unmarshal(data)
}

// Remove deletes a snapshot file (used after a search runs to completion).
func Remove(fs FS, path string) error {
	if fs == nil {
		fs = OS
	}
	return fs.Remove(path)
}

// marshal serializes the snapshot into the framed format.
func (s *Snapshot) marshal() []byte {
	var w writer
	w.u64(s.Fingerprint)
	w.i64(int64(s.Elapsed))
	w.i64(int64(s.SplitDepth))
	w.i64(s.LeavesUsed)
	stats := s.Stats.fields()
	for _, p := range stats[:leadStats] {
		w.i64(*p)
	}
	w.u32(uint32(len(s.Failures)))
	for _, f := range s.Failures {
		w.u32(uint32(f.Worker))
		w.str(f.Err)
		w.str(f.Stack)
	}
	if s.Incumbent == nil {
		w.u8(0)
	} else {
		w.u8(1)
		inc := s.Incumbent
		w.u32(uint32(len(inc.State)))
		for _, b := range inc.State {
			if b {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
		w.u32(uint32(len(inc.Choices)))
		for _, c := range inc.Choices {
			w.u32(uint32(c[0]))
			w.u32(uint32(c[1]))
		}
		w.f64(inc.Leak)
		w.f64(inc.Isub)
		w.f64(inc.Delay)
	}
	w.u32(uint32(len(s.Frontier)))
	vecLen := 0
	if len(s.Frontier) > 0 {
		vecLen = len(s.Frontier[0])
	}
	w.u32(uint32(vecLen))
	for _, vec := range s.Frontier {
		w.b = append(w.b, vec...)
	}
	// Trailing section: the relaxation counters and retired PortfolioWins.
	for _, p := range stats[leadStats:] {
		w.i64(*p)
	}

	payload := w.b
	out := make([]byte, 0, len(magic)+16+len(payload)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return out
}

// Unmarshal validates the frame (magic, version, length, CRC) and decodes
// the payload.
func Unmarshal(data []byte) (*Snapshot, error) {
	if len(data) < len(magic)+16 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[len(magic):]
	version := binary.LittleEndian.Uint32(rest[:4])
	if version != Version {
		return nil, fmt.Errorf("%w: got version %d, want %d", ErrVersion, version, Version)
	}
	plen := binary.LittleEndian.Uint64(rest[4:12])
	rest = rest[12:]
	if plen > maxCount || uint64(len(rest)) != plen+4 {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(rest), plen+4)
	}
	payload := rest[:plen]
	want := binary.LittleEndian.Uint32(rest[plen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}

	r := reader{b: payload}
	s := &Snapshot{
		Fingerprint: r.u64(),
		Elapsed:     time.Duration(r.i64()),
		SplitDepth:  int(r.i64()),
		LeavesUsed:  r.i64(),
	}
	stats := s.Stats.fields()
	for _, p := range stats[:leadStats] {
		*p = r.i64()
	}
	nf := r.count()
	for i := 0; i < nf && !r.failed; i++ {
		s.Failures = append(s.Failures, WorkerFailure{
			Worker: int32(r.u32()),
			Err:    r.str(),
			Stack:  r.str(),
		})
	}
	if r.u8() != 0 {
		inc := &Incumbent{}
		ns := r.count()
		inc.State = make([]bool, 0, min(ns, 1<<16))
		for i := 0; i < ns && !r.failed; i++ {
			inc.State = append(inc.State, r.u8() != 0)
		}
		nc := r.count()
		inc.Choices = make([][2]int32, 0, min(nc, 1<<16))
		for i := 0; i < nc && !r.failed; i++ {
			inc.Choices = append(inc.Choices, [2]int32{int32(r.u32()), int32(r.u32())})
		}
		inc.Leak = r.f64()
		inc.Isub = r.f64()
		inc.Delay = r.f64()
		s.Incumbent = inc
	}
	ntasks := r.count()
	vecLen := r.count()
	// Every task must fit in the rest of the payload; a zero-length vector
	// (a circuit without inputs) allows only the single root task, so no
	// count makes the loop below outrun the input.
	if !r.failed && uint64(ntasks)*uint64(vecLen) <= uint64(len(r.b)) && (vecLen > 0 || ntasks <= 1) {
		s.Frontier = make([][]byte, 0, min(ntasks, 1<<16))
		for i := 0; i < ntasks && !r.failed; i++ {
			s.Frontier = append(s.Frontier, r.bytes(vecLen))
		}
	} else if ntasks > 0 {
		r.failed = true
	}
	for _, p := range stats[leadStats:] {
		*p = r.i64()
	}
	if r.failed || len(r.b) != 0 {
		return nil, fmt.Errorf("%w: payload does not decode cleanly", ErrCorrupt)
	}
	return s, nil
}

// writer appends little-endian fields to a growing buffer.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// reader consumes little-endian fields, latching any short read into the
// failed flag so callers can validate once at the end.
type reader struct {
	b      []byte
	failed bool
}

func (r *reader) take(n int) []byte {
	if r.failed || n < 0 || len(r.b) < n {
		r.failed = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 length and validates it against maxCount.
func (r *reader) count() int {
	n := r.u32()
	if n > maxCount {
		r.failed = true
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

func (r *reader) bytes(n int) []byte {
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
