// Package checkpoint persists the state of a long-running tree search so a
// killed process (OOM, SIGKILL, node preemption, Ctrl-C) can resume instead
// of rediscovering hours of pruned search tree.
//
// A snapshot is a single self-contained file:
//
//	magic "SVTOCKPT" | version u32 | payload length u64 | payload | CRC-32 u32
//
// The frame's integers are little-endian; the payload is the JSON encoding
// of Snapshot.  It carries a fingerprint of (circuit, library, search
// options), the incumbent in pointer-free (state, index) choice
// coordinates, the search counters, the consumed leaf-budget tickets, the
// elapsed wall clock, any recorded worker failures, and the unexplored
// frontier.  Stats and Incumbent are the structs the cluster wire carries,
// under the same JSON names.  Floats are written in shortest round-trip
// form, so a resumed incumbent is bit-identical; NaN and infinities have no
// JSON form, and Save refuses them.
//
// Writes are atomic: the snapshot is serialized to a temporary file in the
// destination directory, fsynced, closed, and renamed over the destination,
// so a crash mid-write leaves either the previous snapshot or none — never
// a torn one.  Reads verify magic, version, length and CRC, then decode
// exactly one JSON object with no unknown field, so a torn, bit-rotted or
// foreign file fails with ErrCorrupt instead of resuming a garbage search;
// a file of another Version fails with ErrVersion.  The filesystem is
// reached through the FS interface so tests can inject write failures.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

var (
	// ErrCorrupt reports a snapshot that failed structural validation:
	// bad magic, torn payload, CRC mismatch, or a payload that is not one
	// well-formed Snapshot.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
)

const (
	magic = "SVTOCKPT"
	// Version is the current snapshot format version.  Bump it whenever
	// a payload field is added, removed or changes meaning; older files
	// then fail with ErrVersion instead of being misdecoded.  5 is the
	// first JSON payload.
	Version = 5

	// maxPayload bounds the declared payload length, so a corrupt length
	// field fails validation.  JSON has no length prefixes, so decoding
	// allocates in proportion to the payload.
	maxPayload = 1 << 26
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
	// racing solver portfolio the search no longer has.  Nothing sets
	// them, so they are always zero and never written (omitempty); they
	// stay because perfbench reads them.
	LeafCacheHits int64 `json:"leaf_cache_hits,omitempty"`
	BatchSweeps   int64 `json:"batch_sweeps,omitempty"`
	BatchLanes    int64 `json:"batch_lanes,omitempty"`
	// RelaxBounds counts choice-elimination bound checks (relax.Engine) —
	// branches that survived the cheap bound, whose relaxation bound the
	// same probe already read — and RelaxPruned the subset those checks
	// cut (included in Pruned).
	RelaxBounds int64 `json:"relax_bounds,omitempty"`
	RelaxPruned int64 `json:"relax_pruned,omitempty"`
	// PortfolioWins is retired (see LeafCacheHits).
	PortfolioWins int64 `json:"portfolio_wins,omitempty"`
}

// numStats is the number of counters in Stats.
const numStats = 10

// fields lists the counters in declaration order.
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

// WorkerFailure records one worker death (panic or leaf-evaluation error);
// snapshots carry them, so failures survive crash/resume cycles.
// Worker is the worker's index within its run; Stack is the goroutine
// stack at the recovery point, empty for non-panic failures.
type WorkerFailure struct {
	Worker int    `json:"worker"`
	Err    string `json:"err"`
	Stack  string `json:"stack,omitempty"`
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
	Fingerprint uint64 `json:"fingerprint"`
	// Elapsed is the cumulative search wall clock across all prior runs,
	// so time budgets continue rather than reset.
	Elapsed time.Duration `json:"elapsed_ns"`
	// SplitDepth is the state-tree depth of the frontier vectors.
	SplitDepth int `json:"split_depth"`
	// LeavesUsed is the consumed MaxLeaves tickets, so leaf budgets
	// continue rather than reset.
	LeavesUsed int64           `json:"leaves_used"`
	Stats      Stats           `json:"stats"`
	Failures   []WorkerFailure `json:"failures"`
	Incumbent  *Incumbent      `json:"incumbent"`
	// Frontier holds the unexplored subtree prefixes, one vector per
	// task: values 0 (input forced false), 1 (true), 2 (unassigned).
	Frontier [][]byte `json:"frontier"`
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

// Save atomically writes the snapshot to path (see WriteFile).  A snapshot
// JSON cannot encode (a NaN or infinite incumbent float) fails before any
// file is created.
func Save(fs FS, path string, snap *Snapshot) error {
	data, err := snap.marshal()
	if err == nil {
		err = WriteFile(fs, path, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
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

// marshal serializes the snapshot into the framed format.  It fails only
// on a value JSON cannot carry: a NaN or infinite incumbent float.
func (s *Snapshot) marshal() ([]byte, error) {
	payload, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(magic)+16+len(payload)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload)), nil
}

// Unmarshal validates the frame (magic, version, length, CRC) and decodes
// the payload: exactly one JSON object, every field a known one.
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
	if plen > maxPayload || uint64(len(rest)) != plen+4 {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(rest), plen+4)
	}
	payload := rest[:plen]
	want := binary.LittleEndian.Uint32(rest[plen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrCorrupt, got, want)
	}

	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var s *Snapshot
	if err := dec.Decode(&s); err != nil || s == nil {
		return nil, fmt.Errorf("%w: payload is not a snapshot object (%v)", ErrCorrupt, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: data after the payload's JSON value", ErrCorrupt)
	}
	return s, nil
}
