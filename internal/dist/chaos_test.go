package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"svto/pkg/svto"
)

// fastRetry is the test-speed retry policy: same shape as production,
// millisecond delays.
func fastRetry(seed int64) RetryPolicy {
	return RetryPolicy{MaxAttempts: 8, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Seed: seed}
}

// startChaosShard runs a shard whose HTTP client rides a chaosTransport,
// returning the transport so tests can flip partitions and read stats.
func startChaosShard(t *testing.T, url, name string, workers int, cfg chaosConfig) *chaosTransport {
	t.Helper()
	ct := newChaosTransport(cfg, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunShard(ctx, ShardConfig{
			Coordinator:  url,
			Name:         name,
			Workers:      workers,
			PollInterval: 10 * time.Millisecond,
			SyncInterval: 20 * time.Millisecond,
			Retry:        fastRetry(cfg.Seed),
			Client:       &http.Client{Transport: ct, Timeout: 10 * time.Second},
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return ct
}

// stubRT fabricates numbered 200 replies so a fault sequence can be
// observed without a real server.
type stubRT struct {
	mu    sync.Mutex
	calls int
}

func (s *stubRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	body := fmt.Sprintf(`{"n":%d}`, n)
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  make(http.Header),
		Body:    io.NopCloser(strings.NewReader(body)),
		Request: req, ContentLength: int64(len(body)),
	}, nil
}

// chaosTrace drives n requests through a fresh transport and returns one
// signature per request (error text, or status plus what the body said).
func chaosTrace(t *testing.T, cfg chaosConfig, n int) []string {
	t.Helper()
	ct := newChaosTransport(cfg, &stubRT{})
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		req, err := http.NewRequest(http.MethodGet, "http://stub/x", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ct.RoundTrip(req)
		if err != nil {
			out = append(out, "err:"+err.Error())
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		out = append(out, fmt.Sprintf("%d:%s", resp.StatusCode, body))
	}
	return out
}

// TestChaosTransportDeterministic: the whole point of the harness — the
// fault sequence is a pure function of the seed and the request order.
func TestChaosTransportDeterministic(t *testing.T) {
	cfg := chaosConfig{Seed: 7, DropRequest: 0.15, DropReply: 0.1, DupRequest: 0.1,
		TruncateReply: 0.1, ErrorReply: 0.1, Delay: 0.2, MaxDelay: time.Millisecond}
	a := chaosTrace(t, cfg, 200)
	b := chaosTrace(t, cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d: %q vs %q", i, a[i], b[i])
		}
	}
	other := cfg
	other.Seed = 8
	c := chaosTrace(t, other, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 200-request fault traces")
	}
}

// TestRetryBackoffRecovers: a flaky endpoint that fails a few times must
// be absorbed by the retry loop, with the attempts counted in the health
// snapshot.
func TestRetryBackoffRecovers(t *testing.T) {
	var mu sync.Mutex
	fails := 3
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if fails > 0 {
			fails--
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		writeJSON(w, struct{}{})
	}))
	defer srv.Close()

	cl := newClient(srv.URL, nil, fastRetry(1))
	if err := cl.post(context.Background(), "", RegisterRequest{Shard: "x"}, nil); err != nil {
		t.Fatalf("retries did not absorb 3 transient failures: %v", err)
	}
	h := cl.counters.snapshot()
	if h.Retries != 3 || h.GiveUps != 0 {
		t.Errorf("health = %+v, want 3 retries, 0 give-ups", h)
	}
}

// TestRetryGivesUpAndNeverRetries4xx: a hard server error exhausts
// MaxAttempts exactly; a 4xx is deterministic and gets exactly one
// attempt.
func TestRetryGivesUpAndNeverRetries4xx(t *testing.T) {
	var mu sync.Mutex
	hits := map[int]int{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch r.URL.Path {
		case "/boom":
			hits[500]++
			http.Error(w, "down", http.StatusInternalServerError)
		default:
			hits[400]++
			http.Error(w, "no", http.StatusBadRequest)
		}
	}))
	defer srv.Close()

	pol := fastRetry(1)
	pol.MaxAttempts = 3
	cl := newClient(srv.URL, nil, pol)
	if err := cl.post(context.Background(), "/boom", struct{}{}, nil); err == nil {
		t.Fatal("permanent 500 reported success")
	}
	if err := cl.post(context.Background(), "/bad", struct{}{}, nil); err == nil {
		t.Fatal("400 reported success")
	}
	mu.Lock()
	got500, got400 := hits[500], hits[400]
	mu.Unlock()
	if got500 != 3 {
		t.Errorf("500 endpoint hit %d times, want MaxAttempts=3", got500)
	}
	if got400 != 1 {
		t.Errorf("400 endpoint hit %d times, want exactly 1 (no retry)", got400)
	}
	h := cl.counters.snapshot()
	if h.GiveUps != 1 {
		t.Errorf("give-ups = %d, want 1", h.GiveUps)
	}
}

// TestRetryDeadlineAware: a backoff that cannot fit before the context
// deadline is not slept through.
func TestRetryDeadlineAware(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	pol := RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second, Seed: 1}
	cl := newClient(srv.URL, nil, pol)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := cl.post(ctx, "", struct{}{}, nil); err == nil {
		t.Fatal("permanent 500 reported success")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-aware retry slept %v past a 100ms deadline", elapsed)
	}
}

// TestNonceFence: a client that adopted coordinator A must refuse to act
// on replies from coordinator B, and B must 409 requests still echoing
// A's nonce.
func TestNonceFence(t *testing.T) {
	coordA := New(Config{Logf: t.Logf})
	coordB := New(Config{Logf: t.Logf})
	if coordA.Nonce() == coordB.Nonce() {
		t.Fatal("two coordinators drew the same run nonce")
	}

	var mu sync.Mutex
	handler := coordA.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	cl := testClient(srv.URL)
	if err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "s", Workers: 1}, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	handler = coordB.Handler()
	mu.Unlock()
	err := cl.post(context.Background(), "/register", RegisterRequest{Shard: "s", Workers: 1}, nil)
	if err == nil || !strings.Contains(err.Error(), ErrCoordinatorRestarted.Error()) {
		t.Fatalf("nonce flip not detected: %v", err)
	}
	if h := cl.counters.snapshot(); h.RestartsSeen != 1 {
		t.Errorf("restarts seen = %d, want 1", h.RestartsSeen)
	}

	// The server-side half: a raw request still echoing A's nonce is fenced
	// off with 409 before it can touch B's state.  (The client's fenced
	// register above already tripped the counter once.)
	before := coordB.Health().StaleNonceRequests
	req, err := http.NewRequest(http.MethodPost, srv.URL+APIPrefix+"/register",
		strings.NewReader(`{"shard":"s","workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(NonceHeader, coordA.Nonce())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale-nonce request got %d, want 409", resp.StatusCode)
	}
	if got := coordB.Health().StaleNonceRequests; got != before+1 {
		t.Errorf("stale-nonce counter = %d, want %d", got, before+1)
	}
}

// TestChaosLossyTwoShardsMatchLocal is the acceptance bar: two shards on
// a seeded hostile network, with faults on both sides of the wire at once
// (each shard's transport drops, duplicates, truncates or errors well
// over 20% of its RPCs, and the coordinator's own replies are delayed,
// errored, truncated or cut after processing), must still finish with
// CSV and Verilog artifacts byte-identical to the undisturbed
// single-process run.
func TestChaosLossyTwoShardsMatchLocal(t *testing.T) {
	req := treeRequest(t, "lossy", 9, 10, 70)
	ref := localRun(t, req)
	refCSV, refVlog := renderArtifacts(t, ref)

	coord := New(Config{MaxLeaseTasks: 2, LeaseTTL: 2 * time.Second, Tick: 25 * time.Millisecond, Logf: t.Logf})
	handler, serverStats := chaosMiddleware(chaosConfig{
		Seed: 13, DropReply: 0.1, TruncateReply: 0.05, ErrorReply: 0.05,
		Delay: 0.2, MaxDelay: 5 * time.Millisecond,
	}, coord.Handler())
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	chaos := chaosConfig{
		DropRequest: 0.1, DropReply: 0.08, DupRequest: 0.08,
		TruncateReply: 0.04, ErrorReply: 0.05,
		Delay: 0.2, MaxDelay: 5 * time.Millisecond,
	}
	c1, c2 := chaos, chaos
	c1.Seed, c2.Seed = 7, 11
	ct1 := startChaosShard(t, srv.URL, "s1", 1, c1)
	ct2 := startChaosShard(t, srv.URL, "s2", 1, c2)
	res := runCluster(t, coord, "lossy", req, RunOptions{})()

	for _, s := range []struct {
		name  string
		stats chaosStats
	}{{"s1", ct1.Stats()}, {"s2", ct2.Stats()}} {
		t.Logf("%s chaos: %+v", s.name, s.stats)
		if share := float64(s.stats.disturbed()) / float64(s.stats.Requests); !(share > 0.20) {
			t.Errorf("%s: %d of %d RPCs disturbed (%.0f%%), want over 20%%",
				s.name, s.stats.disturbed(), s.stats.Requests, 100*share)
		}
	}
	ss := serverStats()
	t.Logf("coordinator chaos: %+v", ss)
	if ss.disturbed() == 0 {
		t.Error("coordinator middleware injected no faults")
	}
	if res.Interrupted {
		t.Error("exhaustive lossy run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("lossy leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
	if res.Stats.Leaves != ref.Stats.Leaves {
		t.Errorf("lossy leaves %d != local %d (exactly-once crediting broken?)",
			res.Stats.Leaves, ref.Stats.Leaves)
	}
	gotCSV, gotVlog := renderArtifacts(t, res)
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("CSV differs from local run (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}
	if !bytes.Equal(gotVlog, refVlog) {
		t.Errorf("Verilog differs from local run (%d vs %d bytes)", len(gotVlog), len(refVlog))
	}
}

// TestChaosDuplicateEveryRPCCreditsOnce: with every single RPC delivered
// twice (DupRequest=1), the duplicated /lease grants become phantom
// leases (rescued by self-stealing) and the duplicated /complete
// deliveries must be dropped by the shard+leaseID dedup — leaves and
// counters credited exactly once, same answer as the local run.
func TestChaosDuplicateEveryRPCCreditsOnce(t *testing.T) {
	req := treeRequest(t, "dupwire", 5, 10, 60)
	ref := localRun(t, req)

	coord, url := newCluster(t, Config{MaxLeaseTasks: 3, Tick: 25 * time.Millisecond})
	ct := startChaosShard(t, url, "s1", 1, chaosConfig{Seed: 3, DupRequest: 1})
	res := runCluster(t, coord, "dupwire", req, RunOptions{})()

	if s := ct.Stats(); s.Dupes == 0 {
		t.Error("no RPC was duplicated")
	}
	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
	if res.Stats.Leaves != ref.Stats.Leaves {
		t.Errorf("leaves %d != local %d under duplicated delivery", res.Stats.Leaves, ref.Stats.Leaves)
	}
	if h := coord.Health(); h.DuplicateCompletions == 0 {
		t.Errorf("coordinator saw no duplicate completions: %+v", h)
	}
}

// TestChaosHealedPartitionConverges: a one-way (inbound) partition forms
// mid-job — the coordinator keeps hearing the shard and acting on its
// RPCs while the shard sees only dead air — then heals.  The run must
// still converge to the local objective with exactly-once leaf credit.
func TestChaosHealedPartitionConverges(t *testing.T) {
	req := treeRequest(t, "partition", 5, 10, 60)
	ref := localRun(t, req)

	coord, url := newCluster(t, Config{MaxLeaseTasks: 2, LeaseTTL: 2 * time.Second, Tick: 25 * time.Millisecond})
	startShard(t, url, "steady", 1)
	ct := startChaosShard(t, url, "flaky", 1, chaosConfig{Seed: 5})
	wait := runCluster(t, coord, "partition", req, RunOptions{})

	// Let the job get moving, then cut the flaky shard's inbound path for a
	// while and heal it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		r := coord.getRun("partition")
		if r != nil {
			r.mu.Lock()
			moving := len(r.done) > 0
			r.mu.Unlock()
			if moving {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ct.SetPartition(partitionInbound)
	time.Sleep(300 * time.Millisecond)
	ct.SetPartition(partitionNone)

	res := wait()
	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("leak %.6f != local %.6f after healed partition", res.LeakNA, ref.LeakNA)
	}
	if res.Stats.Leaves != ref.Stats.Leaves {
		t.Errorf("leaves %d != local %d after healed partition", res.Stats.Leaves, ref.Stats.Leaves)
	}
}

// TestChaosServerMiddlewareLossy exercises the server-side harness: the
// coordinator's own replies are delayed, errored, truncated or cut after
// processing, against clean clients — the mirror image of the transport
// tests, producing server-generated duplicated delivery.
func TestChaosServerMiddlewareLossy(t *testing.T) {
	req := treeRequest(t, "srvchaos", 5, 10, 60)
	ref := localRun(t, req)

	coord := New(Config{MaxLeaseTasks: 2, LeaseTTL: 2 * time.Second, Tick: 25 * time.Millisecond, Logf: t.Logf})
	handler, _ := chaosMiddleware(chaosConfig{
		Seed: 13, DropReply: 0.12, ErrorReply: 0.08, TruncateReply: 0.05,
		Delay: 0.2, MaxDelay: 5 * time.Millisecond,
	}, coord.Handler())
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunShard(ctx, ShardConfig{
			Coordinator:  srv.URL,
			Name:         "s1",
			Workers:      1,
			PollInterval: 10 * time.Millisecond,
			SyncInterval: 20 * time.Millisecond,
			Retry:        fastRetry(2),
			Logf:         t.Logf,
		})
	}()
	t.Cleanup(func() { cancel(); <-done })

	res := runCluster(t, coord, "srvchaos", req, RunOptions{})()
	if res.Interrupted {
		t.Error("run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("leak %.6f != local %.6f under server-side chaos", res.LeakNA, ref.LeakNA)
	}
	if res.Stats.Leaves != ref.Stats.Leaves {
		t.Errorf("leaves %d != local %d under server-side chaos", res.Stats.Leaves, ref.Stats.Leaves)
	}
}

// TestCoordinatorRestartRecovery is the kill-mid-search acceptance test:
// the coordinator dies mid-job (its periodic snapshot is all that
// survives) and a fresh incarnation takes over the same address while the
// shard is still running.  The shard must detect the restart through the
// nonce fence, abandon its in-flight lease, re-register and re-handshake;
// the new coordinator resumes from the checkpoint and the finished run
// must match the undisturbed local CSV.
func TestCoordinatorRestartRecovery(t *testing.T) {
	req := treeRequest(t, "restart", 5, 10, 60)
	ref := localRun(t, req)
	refCSV, _ := renderArtifacts(t, ref)
	ck := filepath.Join(t.TempDir(), "restart.ckpt")

	coordA := New(Config{MaxLeaseTasks: 2, Tick: 10 * time.Millisecond, Logf: t.Logf})
	var mu sync.Mutex
	handler := coordA.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		h := handler
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	chA := make(chan error, 1)
	go func() {
		_, err := coordA.Run(ctxA, "restart", req, RunOptions{
			Checkpoint: svto.Checkpoint{Path: ck, Interval: 10 * time.Millisecond},
		})
		chA <- err
	}()

	startShard(t, srv.URL, "s1", 1)

	// Wait until the job is genuinely mid-search — some tasks done, a
	// snapshot on disk — before killing the first incarnation.
	deadline := time.Now().Add(60 * time.Second)
	for {
		r := coordA.getRun("restart")
		var progressed bool
		if r != nil {
			r.mu.Lock()
			progressed = len(r.done) > 0 && len(r.done) < len(r.tasks)
			r.mu.Unlock()
		}
		if progressed {
			if _, err := os.Stat(ck); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached a mid-search snapshot (finished too fast or never started)")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// "Kill" incarnation A: its process state is gone the moment the shard
	// can no longer reach it.  Swapping the handler first models the new
	// process already listening; canceling A merely stops its goroutines
	// (its final snapshot stands in for the periodic one a real SIGKILL
	// would have left behind).
	coordB := New(Config{MaxLeaseTasks: 2, Tick: 10 * time.Millisecond, Logf: t.Logf})
	mu.Lock()
	handler = coordB.Handler()
	mu.Unlock()
	cancelA()
	if err := <-chA; err != nil {
		t.Fatalf("incarnation A: %v", err)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no snapshot survived the restart: %v", err)
	}

	res := runCluster(t, coordB, "restart", req, RunOptions{
		Checkpoint: svto.Checkpoint{Path: ck, Interval: time.Hour, Resume: true},
	})()

	if !res.Resumed {
		t.Error("restarted run does not carry Resumed provenance")
	}
	if res.Interrupted {
		t.Error("restarted run reported Interrupted")
	}
	if math.Abs(res.LeakNA-ref.LeakNA) > 1e-9 {
		t.Errorf("restarted leak %.6f != local %.6f", res.LeakNA, ref.LeakNA)
	}
	gotCSV, _ := renderArtifacts(t, res)
	if !bytes.Equal(gotCSV, refCSV) {
		t.Errorf("restarted CSV differs from undisturbed local run (%d vs %d bytes)", len(gotCSV), len(refCSV))
	}

	// The shard crossed incarnations: it must have re-registered with B and
	// reported the restart it saw.
	var s1 *ShardStatus
	for _, st := range coordB.Shards() {
		if st.Name == "s1" {
			s1 = &st
			break
		}
	}
	if s1 == nil {
		t.Fatal("shard s1 never re-registered with the new coordinator")
	}
	if s1.Health == nil || s1.Health.RestartsSeen == 0 {
		t.Errorf("shard health does not record the coordinator restart: %+v", s1.Health)
	}
}
