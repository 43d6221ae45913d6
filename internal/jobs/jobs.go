// Package jobs runs svto optimization requests as durable, queued jobs.
//
// A Manager owns a state directory and a bounded FIFO queue.  Submit
// persists the request as a job record and enqueues it; a fixed pool of
// runner goroutines executes jobs through [svto.Run], clamping each job's
// worker/time/leaf budgets to the manager's limits.  Tree searches
// (heuristic2, exact) run with checkpointing enabled, each job owning one
// snapshot file under the state directory, so durability needs no new
// machinery: a SIGKILLed process leaves records and snapshots behind, and
// the next Open rescans the directory, re-enqueues every non-terminal job
// with Resume set, and the search continues where it stopped with its time
// and leaf budgets carried over.  Graceful Close cancels in-flight jobs,
// which makes the search engine write a final snapshot before returning, so
// a clean shutdown is just a cheaper version of a crash.
//
// Concurrent jobs on the same library policy share one characterized
// [svto.Baseline] (the library is immutable after construction); the
// manager characterizes each distinct [svto.LibrarySpec.Key] at most once
// per process and counts builds so tests can assert the sharing.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/dist"
	"svto/pkg/svto"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted and waiting for a runner slot.
	StatusQueued Status = "queued"
	// StatusRunning: a runner is executing the search.
	StatusRunning Status = "running"
	// StatusDone: finished and artifacts are available.  A job that hit its
	// own time or leaf budget is done (with Result.Interrupted set), not
	// interrupted: its budget is spent, so there is nothing to resume.
	StatusDone Status = "done"
	// StatusFailed: the search returned an error.
	StatusFailed Status = "failed"
	// StatusCanceled: canceled by the client; its checkpoint is removed.
	StatusCanceled Status = "canceled"
	// StatusInterrupted: stopped by manager shutdown with budget remaining;
	// the next Open re-enqueues it to resume from its checkpoint.
	StatusInterrupted Status = "interrupted"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

var (
	// ErrQueueFull rejects a Submit when the bounded queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrClosed rejects operations on a closing or closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrFinished rejects canceling a job already in a terminal state.
	ErrFinished = errors.New("jobs: job already finished")
	// ErrRunning rejects deleting a job while a runner is executing it;
	// cancel it first.
	ErrRunning = errors.New("jobs: job is running; cancel it first")
	// ErrNoArtifact reports a missing artifact (unknown kind, or the job
	// has not produced artifacts yet).
	ErrNoArtifact = errors.New("jobs: no such artifact")
)

// Config sizes a Manager.  The zero value is unusable: StateDir is
// required; everything else defaults sensibly in Open.
type Config struct {
	// StateDir is the durable root: records, snapshots and artifacts live
	// under StateDir/jobs.  Created if missing.
	StateDir string
	// QueueSize bounds the FIFO of jobs waiting for a runner (default 64).
	QueueSize int
	// Concurrency is the number of jobs executing at once (default 2).
	Concurrency int
	// JobWorkers caps each job's search workers (default 1, the
	// deterministic width; requests asking for more are clamped).
	JobWorkers int
	// MaxTimeLimit caps each job's search wall clock (default 15m; a
	// request with no limit gets the cap, so no job runs unbounded).
	MaxTimeLimit time.Duration
	// MaxLeaves caps each job's leaf budget; 0 leaves requests unclamped.
	MaxLeaves int64
	// CheckpointInterval is the periodic snapshot cadence for tree
	// searches (default 5s).
	CheckpointInterval time.Duration
	// Cluster, when non-nil, routes tree-search jobs through the attached
	// cluster coordinator whenever it has live worker shards; jobs still
	// run in-process while no shard is registered.  Local and distributed
	// execution share each job's checkpoint file and fingerprint, so a job
	// interrupted in one mode resumes in the other.
	Cluster *dist.Coordinator
}

func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.MaxTimeLimit <= 0 {
		c.MaxTimeLimit = 15 * time.Minute
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 5 * time.Second
	}
	return c
}

// Record is the durable part of a job, persisted as JSON next to its
// snapshot so a restarted manager can reconstruct the queue.
type Record struct {
	ID       string       `json:"id"`
	Request  svto.Request `json:"request"`
	Status   Status       `json:"status"`
	Error    string       `json:"error,omitempty"`
	Created  time.Time    `json:"created"`
	Started  time.Time    `json:"started"`
	Finished time.Time    `json:"finished"`
	// Resumes counts how many times the job was re-adopted after a crash
	// or shutdown — checkpoint-resume provenance for clients.
	Resumes int `json:"resumes,omitempty"`
}

// View is the client-facing snapshot of a job: the durable record plus the
// live search progress while running.
type View struct {
	Record
	Progress *svto.Progress `json:"progress,omitempty"`
	// Result is the completed job's result document (the same JSON served
	// as the result artifact); nil until the job is done or failed with a
	// partial result.  Only Get carries it — List omits Result so listing
	// many finished jobs never hauls every per-gate assignment document.
	Result json.RawMessage `json:"result,omitempty"`
}

// job is the in-memory state; the durable Record inside is guarded by the
// manager mutex.
type job struct {
	rec        Record
	cancel     context.CancelFunc // non-nil while running
	userCancel bool               // Cancel() was called (vs shutdown)
	progress   progressBox
	// result caches the rendered result document so Get does not re-read
	// result.json from disk under the manager mutex on every status poll;
	// filled by finalize, or lazily on the first Get after a restart.
	result json.RawMessage
}

// progressBox holds the latest search snapshot, written by the search's
// progress callback and read by status requests.
type progressBox struct {
	mu sync.Mutex
	p  *svto.Progress
}

func (b *progressBox) store(p svto.Progress) {
	b.mu.Lock()
	b.p = &p
	b.mu.Unlock()
}

func (b *progressBox) load() *svto.Progress {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.p
}

// Manager owns the queue, the runners and the state directory.
type Manager struct {
	cfg  Config
	dir  string // StateDir/jobs
	mu   sync.Mutex
	jobs map[string]*job
	// queue carries job IDs, not *job, so a stale entry for a canceled
	// job is re-checked against the authoritative record at dequeue.
	queue   chan string
	wg      sync.WaitGroup
	closing bool

	baseMu    sync.Mutex
	baselines map[string]*baselineEntry
	builds    int64

	orphans []string
}

type baselineEntry struct {
	once sync.Once
	b    *svto.Baseline
	err  error
}

// Open creates (or reopens) a manager over cfg.StateDir.  Reopening adopts
// the directory's prior state: non-terminal jobs are re-enqueued in
// creation order with checkpoint resume enabled, snapshots belonging to
// terminal jobs are deleted, and snapshots with no record at all are kept
// but reported by Orphans.
func Open(cfg Config) (*Manager, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("jobs: Config.StateDir is required")
	}
	cfg = cfg.withDefaults()
	dir := filepath.Join(cfg.StateDir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	m := &Manager{
		cfg:       cfg,
		dir:       dir,
		jobs:      make(map[string]*job),
		baselines: make(map[string]*baselineEntry),
	}
	resumable, err := m.adopt()
	if err != nil {
		return nil, err
	}
	// Size the channel to fit every adopted job before re-enqueueing: the
	// state directory can hold more non-terminal jobs than QueueSize
	// (queued + running from the previous process, or a reopen with a
	// smaller -queue), and the runners are not started yet, so a bounded
	// send here would deadlock Open forever.  Submit still enforces
	// cfg.QueueSize itself, so an oversized adoption does not loosen the
	// admission bound.
	qcap := cfg.QueueSize
	if len(resumable) > qcap {
		qcap = len(resumable)
	}
	m.queue = make(chan string, qcap)
	for _, j := range resumable {
		m.queue <- j.rec.ID
	}
	for i := 0; i < cfg.Concurrency; i++ {
		m.wg.Add(1)
		go m.runner()
	}
	return m, nil
}

// adopt loads prior records and snapshots from the state directory and
// returns the non-terminal jobs in creation order, marked queued and ready
// to re-enqueue.  It never touches the queue — Open sizes the channel off
// the returned slice before any send.
func (m *Manager) adopt() ([]*job, error) {
	des, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var resumable []*job
	for _, de := range des {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		rec, err := readRecord(filepath.Join(m.dir, de.Name()))
		if err != nil {
			// A torn record is unrecoverable state, not a reason to
			// refuse to serve: skip it.
			continue
		}
		j := &job{rec: rec}
		m.jobs[rec.ID] = j
		if !rec.Status.Terminal() {
			resumable = append(resumable, j)
		}
	}
	// Re-enqueue survivors oldest-first so the FIFO order of the previous
	// process is preserved.
	sort.Slice(resumable, func(i, k int) bool {
		return resumable[i].rec.Created.Before(resumable[k].rec.Created)
	})
	for _, j := range resumable {
		if j.rec.Status != StatusQueued {
			j.rec.Resumes++
		}
		j.rec.Status = StatusQueued
		if err := m.writeRecord(&j.rec); err != nil {
			return nil, err
		}
	}
	// Snapshot hygiene: terminal jobs must not leave snapshots behind
	// (completion removes them, but a crash between the final record write
	// and the snapshot removal can), and snapshots with no record at all
	// are surfaced rather than silently deleted — they may belong to
	// another process's state directory mistake.  A resumable job whose
	// snapshot is unreadable (torn final write, old format version) must
	// restart from scratch with its budget intact, not run into a
	// guaranteed resume failure: drop the bad snapshot so the search's
	// unconditional Resume falls back to a fresh start.
	entries, err := checkpoint.ScanDir(m.dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		id := jobIDFromPath(e.Path)
		j, ok := m.jobs[id]
		switch {
		case !ok:
			m.orphans = append(m.orphans, e.Path)
		case j.rec.Status.Terminal():
			os.Remove(e.Path)
		case e.Err != nil:
			os.Remove(e.Path)
		}
	}
	return resumable, nil
}

func jobIDFromPath(path string) string {
	base := filepath.Base(path)
	return base[:len(base)-len(checkpoint.Ext)]
}

// Orphans lists snapshot files found in the state directory that belong to
// no known job record.
func (m *Manager) Orphans() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.orphans...)
}

// BaselineBuilds reports how many library characterizations this manager
// has performed; concurrent jobs on one technology must not raise it past
// the number of distinct library keys.
func (m *Manager) BaselineBuilds() int64 {
	m.baseMu.Lock()
	defer m.baseMu.Unlock()
	return m.builds
}

// baseline returns the shared characterized library for spec, building it
// at most once per key across all concurrent jobs.
func (m *Manager) baseline(spec svto.LibrarySpec) (*svto.Baseline, error) {
	key := spec.Key()
	m.baseMu.Lock()
	e, ok := m.baselines[key]
	if !ok {
		e = &baselineEntry{}
		m.baselines[key] = e
	}
	m.baseMu.Unlock()
	e.once.Do(func() {
		e.b, e.err = svto.NewBaseline(spec)
		m.baseMu.Lock()
		m.builds++
		m.baseMu.Unlock()
	})
	return e.b, e.err
}

// Submit validates, persists and enqueues a new job, returning its view.
func (m *Manager) Submit(req svto.Request) (View, error) {
	// Fail malformed requests at submission, not minutes later in a
	// runner: probe the design and library specs now.
	if err := svto.Validate(req); err != nil {
		return View{}, err
	}
	id, err := newID()
	if err != nil {
		return View{}, err
	}
	j := &job{rec: Record{
		ID:      id,
		Request: req,
		Status:  StatusQueued,
		Created: time.Now().UTC(),
	}}

	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return View{}, ErrClosed
	}
	// The channel can be wider than QueueSize after adopting an oversized
	// state directory, so the admission bound is checked explicitly; the
	// non-blocking send is kept as a backstop.  Draining runners can only
	// make len(queue) shrink concurrently, so the check is conservative.
	if len(m.queue) >= m.cfg.QueueSize {
		m.mu.Unlock()
		return View{}, fmt.Errorf("%w (capacity %d)", ErrQueueFull, m.cfg.QueueSize)
	}
	select {
	case m.queue <- id:
	default:
		m.mu.Unlock()
		return View{}, fmt.Errorf("%w (capacity %d)", ErrQueueFull, m.cfg.QueueSize)
	}
	m.jobs[id] = j
	if err := m.writeRecord(&j.rec); err != nil {
		delete(m.jobs, id)
		m.mu.Unlock()
		return View{}, err
	}
	v := m.viewLocked(j, false)
	m.mu.Unlock()
	return v, nil
}

// Get returns the current view of a job, result document included.
func (m *Manager) Get(id string) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return m.viewLocked(j, true), nil
}

// List returns every known job, newest first.  List views omit the result
// document — it can be large (full per-gate assignment) and a daemon with
// many finished jobs must not serialize all traffic behind O(jobs) document
// loads per listing; fetch a single job for its result.
func (m *Manager) List() []View {
	m.mu.Lock()
	defer m.mu.Unlock()
	views := make([]View, 0, len(m.jobs))
	for _, j := range m.jobs {
		views = append(views, m.viewLocked(j, false))
	}
	sort.Slice(views, func(i, k int) bool {
		return views[i].Created.After(views[k].Created)
	})
	return views
}

func (m *Manager) viewLocked(j *job, withResult bool) View {
	v := View{Record: j.rec}
	if j.rec.Status == StatusRunning {
		v.Progress = j.progress.load()
	}
	if withResult && (j.rec.Status == StatusDone || j.rec.Status == StatusFailed) {
		if j.result == nil {
			// Adopted after a restart: the document exists only on disk.
			// Cache it so one job is read at most once per process.
			if raw, err := os.ReadFile(m.artifactPath(j.rec.ID, "result")); err == nil {
				j.result = raw
			}
		}
		v.Result = j.result
	}
	return v
}

// Cancel stops a job: a queued job is marked canceled in place, a running
// one has its context canceled (the search stops at the next within-ms
// cancellation point and the runner finalizes it).  Either way its
// checkpoint is removed — a canceled job must not resurrect on restart.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch j.rec.Status {
	case StatusQueued, StatusInterrupted:
		j.rec.Status = StatusCanceled
		j.rec.Finished = time.Now().UTC()
		os.Remove(m.ckptPath(id))
		return m.writeRecord(&j.rec)
	case StatusRunning:
		j.userCancel = true
		j.cancel()
		return nil
	default:
		return ErrFinished
	}
}

// Delete removes a job and every durable trace of it — checkpoint
// snapshot, artifact directory and record — so a later Open finds a clean
// state directory with nothing to adopt and nothing to report as orphaned.
// Any non-running job may be deleted: queued (the queue carries only IDs,
// and a runner claiming a deleted ID finds no record and skips it),
// terminal, or interrupted.  Running jobs must be canceled first.
//
// Files are removed before the record: if the process dies mid-delete the
// job is still fully described by its record and the client simply retries,
// whereas the opposite order could strand a recordless snapshot that every
// future Open reports as an orphan.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.rec.Status == StatusRunning {
		return ErrRunning
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && !errors.Is(err, os.ErrNotExist) && firstErr == nil {
			firstErr = err
		}
	}
	keep(os.Remove(m.ckptPath(id)))
	keep(os.RemoveAll(filepath.Join(m.dir, id)))
	keep(os.Remove(m.recordPath(id)))
	if firstErr != nil {
		return firstErr
	}
	delete(m.jobs, id)
	return nil
}

// Artifact resolves a job's artifact kind (verilog, liberty, csv, report,
// result, standby-bench) to its file path.
func (m *Manager) Artifact(id, kind string) (string, error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return "", ErrNotFound
	}
	path := m.artifactPath(id, kind)
	if path == "" {
		return "", fmt.Errorf("%w: unknown kind %q", ErrNoArtifact, kind)
	}
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("%w: %q not produced (job not done?)", ErrNoArtifact, kind)
	}
	return path, nil
}

// artifactNames maps API artifact kinds to files in the job's directory.
var artifactNames = map[string]string{
	"verilog":       "design.v",
	"liberty":       "cells.lib",
	"csv":           "power.csv",
	"report":        "report.txt",
	"result":        "result.json",
	"standby-bench": "standby.bench",
}

func (m *Manager) artifactPath(id, kind string) string {
	name, ok := artifactNames[kind]
	if !ok {
		return ""
	}
	return filepath.Join(m.dir, id, name)
}

func (m *Manager) ckptPath(id string) string {
	return filepath.Join(m.dir, id+checkpoint.Ext)
}

func (m *Manager) recordPath(id string) string {
	return filepath.Join(m.dir, id+".json")
}

// Close stops the manager gracefully: no new submissions, queued jobs stay
// queued on disk, and every running job's context is canceled, which makes
// the search write a final checkpoint and return its incumbent; those jobs
// persist as interrupted and resume on the next Open.  Close waits for the
// runners to drain.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return ErrClosed
	}
	m.closing = true
	for _, j := range m.jobs {
		if j.rec.Status == StatusRunning && j.cancel != nil {
			j.cancel()
		}
	}
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
	return nil
}

func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

func readRecord(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, err
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("jobs: record %s has no id", path)
	}
	return rec, nil
}

// writeRecord persists a record atomically (temp + fsync + rename) so a
// crash mid-write leaves the previous record, never a torn one.
func (m *Manager) writeRecord(rec *Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(nil, m.recordPath(rec.ID), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
