package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"svto/internal/checkpoint"
	"svto/internal/gen"
	"svto/internal/netlist"
	"svto/pkg/svto"
)

// benchText serializes a deterministic random mapped circuit to .bench
// text, the inline form jobs carry on the wire.
func benchText(t *testing.T, name string, seed int64, inputs, gates int) string {
	t.Helper()
	circ, err := gen.RandomLogic(name, seed, inputs, gates)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := netlist.WriteBench(&buf, circ); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// quickRequest is a sub-second heuristic1 job.
func quickRequest(t *testing.T) svto.Request {
	return svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, "quick", 3, 8, 40), Name: "quick"},
		Search: svto.SearchSpec{Penalty: 0.05},
	}
}

// slowRequest is a heuristic2 tree search sized to run for many seconds
// unless canceled — used to occupy runners and to interrupt mid-search.
func slowRequest(t *testing.T) svto.Request {
	return svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, "slow", 7, 14, 150), Name: "slow"},
		Search: svto.SearchSpec{
			Algorithm:    svto.Heuristic2,
			Penalty:      0.05,
			Workers:      1,
			TimeLimitSec: 300,
		},
	}
}

func waitStatus(t *testing.T, m *Manager, id string, want Status, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status == want {
			return v
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (err %q), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	m, err := Open(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	req := quickRequest(t)
	req.Output.StandbyBench = true
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, v.ID, StatusDone, 30*time.Second)
	if done.Started.IsZero() || done.Finished.IsZero() {
		t.Errorf("timestamps not set: %+v", done.Record)
	}
	if len(done.Result) == 0 {
		t.Fatal("done view carries no result document")
	}
	var res svto.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatalf("result document: %v", err)
	}
	if res.LeakNA <= 0 || res.Interrupted {
		t.Errorf("result: leak %v interrupted %v", res.LeakNA, res.Interrupted)
	}
	for _, kind := range []string{"verilog", "liberty", "csv", "report", "result", "standby-bench"} {
		path, err := m.Artifact(v.ID, kind)
		if err != nil {
			t.Errorf("artifact %s: %v", kind, err)
			continue
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %s: empty or missing (%v)", kind, err)
		}
	}
	if _, err := m.Artifact(v.ID, "bogus"); !errors.Is(err, ErrNoArtifact) {
		t.Errorf("bogus artifact kind: %v", err)
	}
}

func TestSubmitRejectsMalformedRequest(t *testing.T) {
	m, err := Open(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c432 := svto.DesignSpec{Benchmark: "c432"}
	for _, tc := range []struct {
		name string
		req  svto.Request
	}{
		{"empty request", svto.Request{}},
		{"unknown algorithm", svto.Request{Design: c432, Search: svto.SearchSpec{Algorithm: "simulated-annealing"}}},
		// Search budgets core would reject must fail here, not as a
		// failed job after queueing.
		{"negative budgets", svto.Request{Design: c432, Search: svto.SearchSpec{RefinePasses: -1, MaxLeaves: -3}}},
		{"negative refine passes", svto.Request{Design: c432, Search: svto.SearchSpec{RefinePasses: -1}}},
		{"negative max leaves", svto.Request{Design: c432, Search: svto.SearchSpec{Algorithm: svto.Heuristic2, MaxLeaves: -3}}},
		{"negative workers", svto.Request{Design: c432, Search: svto.SearchSpec{Workers: -1}}},
		{"negative time limit", svto.Request{Design: c432, Search: svto.SearchSpec{TimeLimitSec: -1}}},
	} {
		if v, err := m.Submit(tc.req); err == nil {
			t.Errorf("%s accepted (job %s, status %q)", tc.name, v.ID, v.Status)
		}
	}
}

func TestQueueBoundsAndCancel(t *testing.T) {
	m, err := Open(Config{
		StateDir:           t.TempDir(),
		Concurrency:        1,
		QueueSize:          2,
		CheckpointInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Occupy the single runner with a long search.
	running, err := m.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, running.ID, StatusRunning, 30*time.Second)

	// Fill the queue to capacity, then overflow it.
	var queued []View
	for i := 0; i < 2; i++ {
		v, err := m.Submit(quickRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v)
	}
	if _, err := m.Submit(quickRequest(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}

	// Cancel one queued job in place; the runner must skip it.
	if err := m.Cancel(queued[0].ID); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(queued[0].ID); v.Status != StatusCanceled {
		t.Fatalf("queued cancel: status %q", v.Status)
	}

	// Cancel the running job; its checkpoint must not survive.
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, running.ID, StatusCanceled, 30*time.Second)
	if _, err := os.Stat(m.ckptPath(running.ID)); !os.IsNotExist(err) {
		t.Errorf("canceled job left checkpoint behind: %v", err)
	}
	if err := m.Cancel(running.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("double cancel: %v, want ErrFinished", err)
	}

	// The remaining queued job still runs to completion.
	waitStatus(t, m, queued[1].ID, StatusDone, 60*time.Second)
}

// TestDeleteRemovesAllState is the delete-then-restart contract: Delete
// purges a job's record, snapshot and artifact directory, so after deleting
// every job the state directory is empty and a reopened manager adopts
// nothing and reports no orphans.
func TestDeleteRemovesAllState(t *testing.T) {
	state := t.TempDir()
	cfg := Config{StateDir: state, Concurrency: 1, CheckpointInterval: 50 * time.Millisecond}
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single runner; a second submission stays queued.
	slow, err := m.Submit(slowRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, slow.ID, StatusRunning, 30*time.Second)
	queued, err := m.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}

	// A running job refuses deletion; unknown IDs are not found.
	if err := m.Delete(slow.ID); !errors.Is(err, ErrRunning) {
		t.Fatalf("delete running job: %v, want ErrRunning", err)
	}
	if err := m.Delete("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete unknown job: %v, want ErrNotFound", err)
	}

	// A queued job deletes in place; the runner later skips its stale
	// queue entry.
	if err := m.Delete(queued.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(queued.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted job still visible: %v", err)
	}

	// Cancel the slow job, run one to completion, and purge both.  The done
	// job gets a stray snapshot planted first, simulating a crash in the
	// window between the final record write and the snapshot removal —
	// exactly the leftover Delete must clean up.
	if err := m.Cancel(slow.ID); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, slow.ID, StatusCanceled, 30*time.Second)
	done, err := m.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, done.ID, StatusDone, 60*time.Second)
	if fi, err := os.Stat(filepath.Join(m.dir, done.ID)); err != nil || !fi.IsDir() {
		t.Fatalf("done job has no artifact dir: %v", err)
	}
	if err := os.WriteFile(m.ckptPath(done.ID), []byte("stale snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(done.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(done.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if err := m.Delete(slow.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing may survive on disk...
	entries, err := os.ReadDir(filepath.Join(state, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		t.Errorf("state dir not clean after deleting every job: %s", de.Name())
	}
	// ...and a restarted manager must find a blank slate.
	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if views := m2.List(); len(views) != 0 {
		t.Errorf("reopened manager adopted %d deleted job(s)", len(views))
	}
	if orphans := m2.Orphans(); len(orphans) != 0 {
		t.Errorf("reopened manager reports orphans: %v", orphans)
	}
}

// TestCloseResumeBitIdentical is the durability contract: a job
// interrupted by graceful shutdown resumes after reopen and produces a CSV
// byte-identical to an uninterrupted Workers=1 run of the same request.
func TestCloseResumeBitIdentical(t *testing.T) {
	req := svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, "resume", 11, 12, 90), Name: "resume"},
		Search: svto.SearchSpec{
			Algorithm:    svto.Heuristic2,
			Penalty:      0.05,
			Workers:      1,
			TimeLimitSec: 300,
		},
	}
	cfg := Config{Concurrency: 1, CheckpointInterval: 25 * time.Millisecond}

	// Reference: uninterrupted run in its own state directory.
	refCfg := cfg
	refCfg.StateDir = t.TempDir()
	ref, err := Open(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refJob, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, ref, refJob.ID, StatusDone, 120*time.Second)
	refCSV, err := os.ReadFile(filepath.Join(ref.dir, refJob.ID, "power.csv"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	// Interrupted run: wait for the first snapshot, then shut down.
	cfg.StateDir = t.TempDir()
	m1, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	job, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := m1.ckptPath(job.ID)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if v, _ := m1.Get(job.ID); v.Status.Terminal() {
			t.Fatalf("job finished before first checkpoint (status %q) — enlarge the circuit", v.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m1.Get(job.ID); v.Status != StatusInterrupted {
		t.Fatalf("after close: status %q, want %q", v.Status, StatusInterrupted)
	}

	// Reopen the same state directory: the job must be adopted, resumed
	// and finish with byte-identical artifacts.
	m2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	done := waitStatus(t, m2, job.ID, StatusDone, 120*time.Second)
	if done.Resumes == 0 {
		t.Error("resumed job reports zero Resumes")
	}
	var res svto.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed {
		t.Error("result does not carry Resumed provenance")
	}
	if res.PriorRuntime <= 0 {
		t.Error("result carries no PriorRuntime")
	}
	gotCSV, err := os.ReadFile(filepath.Join(m2.dir, job.ID, "power.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("resumed CSV differs from uninterrupted run (%d vs %d bytes)",
			len(gotCSV), len(refCSV))
	}
	// A completed job must not leave its snapshot behind.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("done job left checkpoint behind: %v", err)
	}
}

// plantRecord writes a job record directly into a state directory, the way
// a previous process would have left it.
func plantRecord(t *testing.T, stateDir string, rec Record) {
	t.Helper()
	jobsDir := filepath.Join(stateDir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, rec.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenAdoptsMoreJobsThanQueueSize guards against the restart deadlock:
// a state directory can hold more non-terminal jobs than the (possibly
// shrunken) configured queue capacity, and Open must still come up, run
// them all, and keep enforcing the configured bound for new submissions.
func TestOpenAdoptsMoreJobsThanQueueSize(t *testing.T) {
	dir := t.TempDir()
	req := quickRequest(t)
	var ids []string
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("%016x", i+1)
		plantRecord(t, dir, Record{
			ID:      id,
			Request: req,
			Status:  StatusQueued,
			Created: time.Now().UTC().Add(time.Duration(i) * time.Millisecond),
		})
		ids = append(ids, id)
	}
	// A record stored by an older daemon whose request still carries the
	// retired "portfolio" search field: the plain decode ignores it and
	// the job is adopted like any other.
	legacy := Record{ID: fmt.Sprintf("%016x", 6), Request: req, Status: StatusQueued, Created: time.Now().UTC()}
	plantRecord(t, dir, legacy)
	legacyPath := filepath.Join(dir, "jobs", legacy.ID+".json")
	data, err := os.ReadFile(legacyPath)
	if err != nil {
		t.Fatal(err)
	}
	withPortfolio := bytes.Replace(data, []byte(`"search":{`), []byte(`"search":{"portfolio":true,`), 1)
	if bytes.Equal(withPortfolio, data) {
		t.Fatalf("stored record has no search object to extend: %s", data)
	}
	if err := os.WriteFile(legacyPath, withPortfolio, 0o644); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, legacy.ID)

	type opened struct {
		m   *Manager
		err error
	}
	ch := make(chan opened, 1)
	go func() {
		m, err := Open(Config{StateDir: dir, QueueSize: 2, Concurrency: 1})
		ch <- opened{m, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			t.Fatal(o.err)
		}
		defer o.m.Close()
		for _, id := range ids {
			waitStatus(t, o.m, id, StatusDone, 60*time.Second)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Open deadlocked adopting more jobs than QueueSize")
	}
}

// TestAdoptDropsBadSnapshots: a resumable job whose snapshot is unreadable
// (torn write, old format) or fingerprint-mismatched (different circuit,
// library or options) must restart from scratch with its budget intact,
// not be executed into a permanent resume failure.
func TestAdoptDropsBadSnapshots(t *testing.T) {
	treeRequest := func(name string, seed int64) svto.Request {
		return svto.Request{
			Design: svto.DesignSpec{Bench: benchText(t, name, seed, 8, 40), Name: name},
			Search: svto.SearchSpec{
				Algorithm:    svto.Heuristic2,
				Penalty:      0.05,
				Workers:      1,
				TimeLimitSec: 120,
			},
		}
	}

	dir := t.TempDir()
	torn := Record{ID: "00000000000feed1", Request: treeRequest("torn", 21), Status: StatusInterrupted, Created: time.Now().UTC()}
	mismatched := Record{ID: "00000000000feed2", Request: treeRequest("mismatched", 22), Status: StatusInterrupted, Created: time.Now().UTC()}
	// A snapshot from the previous format version: a current file with its
	// version field patched to 5.  Resume would refuse it with ErrVersion,
	// so adoption must drop it for the job to restart.
	oldVersion := Record{ID: "00000000000feed3", Request: treeRequest("oldversion", 23), Status: StatusInterrupted, Created: time.Now().UTC()}
	plantRecord(t, dir, torn)
	plantRecord(t, dir, mismatched)
	plantRecord(t, dir, oldVersion)
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.WriteFile(filepath.Join(jobsDir, torn.ID+".ckpt"), []byte("not a real snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(nil, filepath.Join(jobsDir, mismatched.ID+".ckpt"),
		&checkpoint.Snapshot{Fingerprint: 0xbadbadbadbadbad}); err != nil {
		t.Fatal(err)
	}
	oldPath := filepath.Join(jobsDir, oldVersion.ID+".ckpt")
	if err := checkpoint.Save(nil, oldPath, &checkpoint.Snapshot{Fingerprint: 0xbadbadbadbadbad}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[len("SVTOCKPT"):], 5)
	if err := os.WriteFile(oldPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(nil, oldPath); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("patched snapshot: want ErrVersion, got %v", err)
	}

	m, err := Open(Config{StateDir: dir, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, rec := range []Record{torn, mismatched, oldVersion} {
		done := waitStatus(t, m, rec.ID, StatusDone, 120*time.Second)
		if done.Resumes == 0 {
			t.Errorf("%s: adopted job reports zero Resumes", rec.ID)
		}
		var res svto.Result
		if err := json.Unmarshal(done.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Resumed {
			t.Errorf("%s: fresh restart must not claim Resumed provenance", rec.ID)
		}
	}
}

func TestListOmitsResultDocuments(t *testing.T) {
	m, err := Open(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	done := waitStatus(t, m, v.ID, StatusDone, 30*time.Second)
	if len(done.Result) == 0 {
		t.Fatal("Get must carry the result document")
	}
	for _, lv := range m.List() {
		if len(lv.Result) != 0 {
			t.Errorf("List view for %s carries a %d-byte result document, want none",
				lv.ID, len(lv.Result))
		}
	}
}

func TestOpenAdoptsOrphanSnapshotsAndScrubsStale(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(quickRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, v.ID, StatusDone, 30*time.Second)
	m.Close()

	// Plant a stale snapshot for the terminal job and an orphan snapshot
	// with no record at all.
	jobsDir := filepath.Join(dir, "jobs")
	stale := filepath.Join(jobsDir, v.ID+".ckpt")
	orphan := filepath.Join(jobsDir, "deadbeef00000000.ckpt")
	for _, p := range []string{stale, orphan} {
		if err := os.WriteFile(p, []byte("not a real snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m2, err := Open(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale snapshot for terminal job not scrubbed: %v", err)
	}
	orphans := m2.Orphans()
	if len(orphans) != 1 || orphans[0] != orphan {
		t.Errorf("orphans = %v, want [%s]", orphans, orphan)
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Errorf("orphan snapshot must be preserved: %v", err)
	}
	// The completed job's view (and artifacts) survive the restart.
	got, err := m2.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || len(got.Result) == 0 {
		t.Errorf("adopted terminal job: status %q, result %d bytes", got.Status, len(got.Result))
	}
}
