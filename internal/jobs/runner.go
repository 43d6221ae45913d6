package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/core"
	"svto/pkg/svto"
)

// runner is one job-execution goroutine; Concurrency of them share the
// queue.  Each loop iteration claims a job ID, re-checks it against the
// authoritative record (it may have been canceled while queued), clamps
// its budgets, and runs the search to completion or interruption.
func (m *Manager) runner() {
	defer m.wg.Done()
	for id := range m.queue {
		m.mu.Lock()
		if m.closing {
			// Graceful shutdown: leave the job queued on disk for the
			// next Open instead of starting work we would immediately
			// cancel.
			m.mu.Unlock()
			continue
		}
		j, ok := m.jobs[id]
		if !ok || j.rec.Status != StatusQueued {
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.rec.Status = StatusRunning
		if j.rec.Started.IsZero() {
			j.rec.Started = time.Now().UTC()
		}
		m.writeRecord(&j.rec)
		m.mu.Unlock()

		res, err := m.execute(ctx, j)
		cancel()
		m.finalize(j, res, err)
	}
}

// execute runs one job through svto.Run with the manager's budget clamps,
// shared baseline and per-job checkpoint file.
func (m *Manager) execute(ctx context.Context, j *job) (*svto.Result, error) {
	req := j.rec.Request
	if req.Search.Workers <= 0 || req.Search.Workers > m.cfg.JobWorkers {
		req.Search.Workers = m.cfg.JobWorkers
	}
	if maxSec := m.cfg.MaxTimeLimit.Seconds(); req.Search.TimeLimitSec <= 0 || req.Search.TimeLimitSec > maxSec {
		req.Search.TimeLimitSec = maxSec
	}
	if m.cfg.MaxLeaves > 0 && (req.Search.MaxLeaves <= 0 || req.Search.MaxLeaves > m.cfg.MaxLeaves) {
		req.Search.MaxLeaves = m.cfg.MaxLeaves
	}

	base, err := m.baseline(req.Library)
	if err != nil {
		return nil, err
	}
	opts := svto.RunOptions{
		Baseline: base,
		Progress: func(p svto.Progress) { j.progress.store(p) },
	}
	// Only the tree searches support snapshots; the one-pass heuristics
	// finish in milliseconds and just re-run after a crash.
	if alg := req.Search.Algorithm; alg == svto.Heuristic2 || alg == svto.Exact {
		opts.Checkpoint = svto.Checkpoint{
			Path:     m.ckptPath(j.rec.ID),
			Interval: m.cfg.CheckpointInterval,
			// Resume is unconditional: a fresh job has no snapshot file,
			// which resumes as a fresh start, and an adopted job picks up
			// exactly where the previous process stopped.
			Resume: true,
		}
	}
	// A tree search routes through the cluster coordinator when one is
	// attached and has live shards; otherwise (and for the one-pass
	// heuristics) it runs in-process.  Both paths share the job's
	// checkpoint file and fingerprint, so an interrupted job resumes in
	// whichever mode the daemon is in when it restarts.
	run := func() (*svto.Result, error) {
		if m.cfg.Cluster != nil && m.cfg.Cluster.Ready() && opts.Checkpoint.Path != "" {
			return m.cfg.Cluster.Run(ctx, j.rec.ID, req, opts)
		}
		return svto.Run(ctx, req, opts)
	}
	res, err := run()
	if err != nil && errors.Is(err, core.ErrCheckpointMismatch) && opts.Checkpoint.Path != "" {
		// The adopted snapshot belongs to a different (circuit, library,
		// options) fingerprint — stale state, not a bad request.  Drop the
		// snapshot and rerun from scratch with the budget intact instead
		// of failing the job permanently.
		os.Remove(opts.Checkpoint.Path)
		res, err = run()
	}
	return res, err
}

// finalize persists the job's terminal (or interrupted) state and renders
// its artifacts.
func (m *Manager) finalize(j *job, res *svto.Result, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.cancel = nil
	now := time.Now().UTC()
	switch {
	case j.userCancel:
		// A user cancel wins over however the search terminated: the
		// cancellation itself can surface as an error (or every worker can
		// die while tearing down), and the client who asked for the job to
		// stop must see "canceled", not "failed".  Any error is kept for
		// forensics.
		j.rec.Status = StatusCanceled
		if err != nil {
			j.rec.Error = err.Error()
		}
		j.rec.Finished = now
		os.Remove(m.ckptPath(j.rec.ID))
	case err != nil:
		j.rec.Status = StatusFailed
		j.rec.Error = err.Error()
		j.rec.Finished = now
		// A worker-panic degraded run still carries its incumbent; keep
		// the partial artifacts alongside the failure for forensics.
		if res != nil {
			m.writeArtifacts(j, res)
		}
		os.Remove(m.ckptPath(j.rec.ID))
	case res == nil:
		j.rec.Status = StatusFailed
		j.rec.Error = "search returned no result"
		j.rec.Finished = now
		os.Remove(m.ckptPath(j.rec.ID))
	case res.Interrupted && m.closing:
		// Shutdown interruption with budget remaining: resumable.  The
		// search engine already wrote a final snapshot on its way out.
		j.rec.Status = StatusInterrupted
	default:
		// Clean completion, or the job exhausted its own time/leaf
		// budget (res.Interrupted stays visible in the result document).
		j.rec.Status = StatusDone
		j.rec.Finished = now
		m.writeArtifacts(j, res)
		os.Remove(m.ckptPath(j.rec.ID))
	}
	m.writeRecord(&j.rec)
}

// writeArtifacts renders every artifact into the job's directory.  Each
// artifact is written atomically (temp + fsync + rename) so a crash
// mid-render never leaves a half file that a client could fetch.
func (m *Manager) writeArtifacts(j *job, res *svto.Result) error {
	dir := filepath.Join(m.dir, j.rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out := j.rec.Request.Output
	write := func(name string, render func(w io.Writer) error) error {
		return checkpoint.WriteFile(nil, filepath.Join(dir, name), render)
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	keep(write(artifactNames["verilog"], res.WriteVerilog))
	keep(write(artifactNames["liberty"], res.WriteLiberty))
	keep(write(artifactNames["csv"], res.WritePowerCSV))
	keep(write(artifactNames["report"], func(w io.Writer) error {
		rep, err := res.Report(out.ReportTop)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, rep)
		return err
	}))
	if raw, err := json.MarshalIndent(res, "", "  "); err != nil {
		keep(err)
	} else {
		// Keep the rendered document in memory too, so status requests
		// serve it without re-reading the artifact from disk.
		j.result = append(raw, '\n')
		keep(write(artifactNames["result"], func(w io.Writer) error {
			_, err := w.Write(j.result)
			return err
		}))
	}
	if out.StandbyBench {
		keep(write(artifactNames["standby-bench"], res.WriteStandbyBench))
	}
	if firstErr != nil && j.rec.Error == "" {
		j.rec.Error = "artifacts: " + firstErr.Error()
	}
	return firstErr
}
