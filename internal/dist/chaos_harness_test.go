package dist

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// chaosConfig describes a deterministic network-fault profile.  Every
// probability is in [0,1] and every decision is drawn from one seeded
// stream, so a run's fault pattern is reproducible from the single Seed
// (per transport instance — give each shard its own seed to decorrelate
// them).  The zero value injects nothing.
type chaosConfig struct {
	// Seed drives the fault RNG (0 behaves as 1).
	Seed int64
	// DropRequest loses the request before it reaches the server — the
	// classic lost packet: no side effect, the client just times out.
	DropRequest float64
	// DropReply delivers and executes the request but loses the reply —
	// the nasty half: the server has acted, the client believes it failed
	// and retries, so the endpoint sees duplicated delivery.
	DropReply float64
	// DupRequest delivers the request twice (two server executions, the
	// client reads the second reply) — a retransmit-after-late-ack.
	DupRequest float64
	// TruncateReply cuts the reply body in half mid-stream.
	TruncateReply float64
	// ErrorReply replaces the reply with a synthetic 502 without reaching
	// the server — a dying proxy or refused connection.
	ErrorReply float64
	// Delay adds a uniform random latency in (0, MaxDelay] with this
	// probability (MaxDelay defaults to 50ms when a delay is configured).
	Delay    float64
	MaxDelay time.Duration
}

// partitionMode selects a one-way partition a chaosTransport can impose
// on top of its probabilistic faults, toggled at runtime to model a
// partition forming and healing mid-job.
type partitionMode int32

const (
	// partitionNone: traffic flows (subject to the probabilistic faults).
	partitionNone partitionMode = iota
	// partitionOutbound drops every request before it is sent: this side
	// cannot reach the server at all and goes silent.
	partitionOutbound
	// partitionInbound delivers and executes every request but drops every
	// reply: the server keeps hearing this side (and acting on its RPCs)
	// while this side believes the network is dead — the one-way partition
	// that stresses idempotency hardest.
	partitionInbound
)

// chaosError is the transport-level failure chaos injects; it satisfies
// net.Error so timeout-shaped faults are classified like real ones.
type chaosError struct {
	msg     string
	timeout bool
}

func (e *chaosError) Error() string   { return "chaos: " + e.msg }
func (e *chaosError) Timeout() bool   { return e.timeout }
func (e *chaosError) Temporary() bool { return true }

// chaosStats counts the faults a transport or middleware actually
// injected.
type chaosStats struct {
	Requests       int64
	Dropped        int64
	RepliesDropped int64
	Dupes          int64
	Truncated      int64
	Errored        int64
	Delayed        int64
}

// disturbed counts the requests whose delivery or reply a fault changed;
// delays are not counted.
func (s chaosStats) disturbed() int64 {
	return s.Dropped + s.RepliesDropped + s.Dupes + s.Truncated + s.Errored
}

// chaosTransport is a fault-injecting http.RoundTripper: it wraps a real
// transport and, reproducibly from its seed, drops, delays, duplicates
// and truncates traffic, and can impose one-way partitions.  Wrap a
// shard's http.Client with it to put that shard on a hostile network.
type chaosTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	cfg       chaosConfig
	rng       *rand.Rand
	partition partitionMode
	stats     chaosStats
}

// newChaosTransport builds a transport over base (nil = the default
// transport) injecting cfg's faults.
func newChaosTransport(cfg chaosConfig, base http.RoundTripper) *chaosTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	return &chaosTransport{base: base, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// SetPartition imposes (or heals, with partitionNone) a one-way
// partition.  Safe to call while requests are in flight.
func (t *chaosTransport) SetPartition(mode partitionMode) {
	t.mu.Lock()
	t.partition = mode
	t.mu.Unlock()
}

// Stats returns the injected-fault counters so far.
func (t *chaosTransport) Stats() chaosStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// decision is one request's pre-drawn fate.  All randomness is drawn up
// front under the lock, so the fault sequence depends only on the seed
// and the order of requests, not on goroutine timing within a request.
type decision struct {
	partition partitionMode
	delay     time.Duration
	drop      bool
	dropReply bool
	dup       bool
	trunc     bool
	errReply  bool
}

func (t *chaosTransport) decide() decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Requests++
	d := decision{partition: t.partition}
	if t.cfg.Delay > 0 && t.rng.Float64() < t.cfg.Delay {
		d.delay = time.Duration(t.rng.Int63n(int64(t.cfg.MaxDelay))) + 1
		t.stats.Delayed++
	}
	switch {
	case t.cfg.DropRequest > 0 && t.rng.Float64() < t.cfg.DropRequest:
		d.drop = true
		t.stats.Dropped++
	case t.cfg.ErrorReply > 0 && t.rng.Float64() < t.cfg.ErrorReply:
		d.errReply = true
		t.stats.Errored++
	case t.cfg.DupRequest > 0 && t.rng.Float64() < t.cfg.DupRequest:
		d.dup = true
		t.stats.Dupes++
	}
	switch {
	case t.cfg.DropReply > 0 && t.rng.Float64() < t.cfg.DropReply:
		d.dropReply = true
		t.stats.RepliesDropped++
	case t.cfg.TruncateReply > 0 && t.rng.Float64() < t.cfg.TruncateReply:
		d.trunc = true
		t.stats.Truncated++
	}
	return d
}

// RoundTrip applies the drawn faults around the real round trip.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.decide()
	if d.delay > 0 {
		timer := time.NewTimer(d.delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	switch d.partition {
	case partitionOutbound:
		return nil, &chaosError{msg: "one-way partition: request dropped", timeout: true}
	case partitionInbound:
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &chaosError{msg: "one-way partition: reply dropped", timeout: true}
	}
	if d.drop {
		return nil, &chaosError{msg: "request dropped", timeout: true}
	}
	if d.errReply {
		return &http.Response{
			StatusCode: http.StatusBadGateway,
			Status:     "502 Bad Gateway (chaos)",
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader("chaos: synthetic gateway error")),
			Request: req,
		}, nil
	}
	if d.dup {
		if first, ok := cloneRequest(req); ok {
			if resp, err := t.base.RoundTrip(first); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			// The caller's req body was consumed by neither branch: the
			// clone carried its own body copy, so req is still sendable.
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if d.dropReply {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, &chaosError{msg: "reply dropped", timeout: true}
	}
	if d.trunc {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body[:len(body)/2]))
		// ContentLength stays at the full size: the decoder sees a stream
		// that ends mid-value, exactly like a connection cut mid-reply.
	}
	return resp, nil
}

// cloneRequest duplicates a request for double delivery; needs GetBody
// (set by http.NewRequest for byte readers) unless the body is empty.
func cloneRequest(req *http.Request) (*http.Request, bool) {
	clone := req.Clone(req.Context())
	if req.Body == nil || req.GetBody == nil {
		return clone, req.Body == nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil, false
	}
	clone.Body = body
	return clone, true
}

// chaosMiddleware is the server-side half of the harness: it wraps an
// http.Handler and, reproducibly from cfg.Seed, delays requests, rejects
// them with 503 before the handler runs (ErrorReply), truncates replies
// mid-body (TruncateReply), or processes the request fully and then kills
// the connection (DropReply) — the server-side generator of duplicated
// delivery, since the client saw a dead connection after the state
// change.  DropRequest and DupRequest are client-side notions and are
// ignored here.  The returned stats function reads the counters of the
// faults injected so far.
func chaosMiddleware(cfg chaosConfig, next http.Handler) (http.Handler, func() chaosStats) {
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 50 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var mu sync.Mutex
	var stats chaosStats
	rng := rand.New(rand.NewSource(seed))
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		stats.Requests++
		var delay time.Duration
		if cfg.Delay > 0 && rng.Float64() < cfg.Delay {
			delay = time.Duration(rng.Int63n(int64(cfg.MaxDelay))) + 1
			stats.Delayed++
		}
		errReply := cfg.ErrorReply > 0 && rng.Float64() < cfg.ErrorReply
		dropReply := cfg.DropReply > 0 && rng.Float64() < cfg.DropReply
		trunc := cfg.TruncateReply > 0 && rng.Float64() < cfg.TruncateReply
		switch {
		case errReply:
			stats.Errored++
		case dropReply:
			stats.RepliesDropped++
		case trunc:
			stats.Truncated++
		}
		mu.Unlock()

		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-r.Context().Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		if errReply {
			http.Error(w, "chaos: server overloaded", http.StatusServiceUnavailable)
			return
		}
		if !dropReply && !trunc {
			next.ServeHTTP(w, r)
			return
		}
		rec := &replyRecorder{header: make(http.Header), code: http.StatusOK}
		next.ServeHTTP(rec, r)
		if dropReply {
			// The handler's side effects stand; the client sees a dead
			// connection.  ErrAbortHandler is the stdlib's sanctioned way
			// to cut the connection without a stack dump.
			panic(http.ErrAbortHandler)
		}
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(rec.code)
		w.Write(rec.body.Bytes()[:rec.body.Len()/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	})
	return h, func() chaosStats {
		mu.Lock()
		defer mu.Unlock()
		return stats
	}
}

// replyRecorder buffers a handler's response so the middleware can decide
// what (if anything) the client gets to see.
type replyRecorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *replyRecorder) Header() http.Header { return r.header }
func (r *replyRecorder) WriteHeader(code int) {
	r.code = code
}
func (r *replyRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
