package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// NonceHeader carries the coordinator's run nonce on every wire-protocol
// request and response.  The coordinator generates a fresh nonce per
// process; a shard learns it at registration, echoes it on every later
// RPC, and treats any flip — in a response header, or a StatusConflict
// rejection of a stale echo — as proof the coordinator restarted.  That
// matters because a restarted coordinator re-allocates lease IDs from
// zero: without the nonce fence, a stale shard's /complete for old lease
// N could credit the *new* coordinator's unrelated lease N.
const NonceHeader = "X-Svto-Run-Nonce"

// ErrCoordinatorRestarted reports that the coordinator answering the wire
// protocol is not the process this shard registered with.  The shard must
// abandon its in-flight leases, re-register, and re-do the fingerprint
// handshake before exchanging any more work.
var ErrCoordinatorRestarted = errors.New("dist: coordinator restarted (run nonce changed)")

// RetryPolicy shapes the shard client's capped exponential backoff.  The
// zero value picks defaults suitable for the default poll cadence; tests
// shrink the delays to keep fault-injection runs fast.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per RPC (default 8).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each retry doubles it
	// up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed seeds the jitter RNG (default 1); jitter is the only randomness
	// in the client, so a fixed seed keeps retry schedules reproducible.
	Seed int64
}

// retryJitter randomizes each backoff by ±retryJitter/2 of itself, so a
// fleet of shards retrying after one coordinator hiccup does not re-arrive
// in lockstep.
const retryJitter = 0.2

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// ShardHealth is a shard's transport degradation snapshot: it rides on
// register and sync requests so the coordinator can surface per-shard
// network health in /v1/stats without a separate scrape channel.
type ShardHealth struct {
	// Retries counts RPC attempts beyond the first.
	Retries int64 `json:"retries,omitempty"`
	// Timeouts counts attempts that failed with a timeout specifically.
	Timeouts int64 `json:"timeouts,omitempty"`
	// GiveUps counts RPCs abandoned after exhausting MaxAttempts.
	GiveUps int64 `json:"give_ups,omitempty"`
	// Reregistrations counts re-handshakes after a detected coordinator
	// restart.
	Reregistrations int64 `json:"reregistrations,omitempty"`
	// RestartsSeen counts distinct coordinator-restart detections.
	RestartsSeen int64 `json:"restarts_seen,omitempty"`
}

// transportCounters is the live (atomic-free, mutex-guarded with the
// client nonce) accumulator behind ShardHealth.
type transportCounters struct {
	mu      sync.Mutex
	retries int64
	timeout int64
	giveUps int64
	rereg   int64
	restart int64
}

func (t *transportCounters) addRetry(isTimeout bool) {
	t.mu.Lock()
	t.retries++
	if isTimeout {
		t.timeout++
	}
	t.mu.Unlock()
}

func (t *transportCounters) addGiveUp() {
	t.mu.Lock()
	t.giveUps++
	t.mu.Unlock()
}

func (t *transportCounters) addRestart() {
	t.mu.Lock()
	t.restart++
	t.mu.Unlock()
}

func (t *transportCounters) addReregistration() {
	t.mu.Lock()
	t.rereg++
	t.mu.Unlock()
}

func (t *transportCounters) snapshot() *ShardHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &ShardHealth{
		Retries:         t.retries,
		Timeouts:        t.timeout,
		GiveUps:         t.giveUps,
		Reregistrations: t.rereg,
		RestartsSeen:    t.restart,
	}
}

// client is the shard side of the wire protocol: JSON over HTTP with
// capped exponential backoff + jitter on transient failures, and the run
// nonce fence that detects coordinator restarts.  Safe for concurrent use
// (the sync pump and the lease loop share one).
type client struct {
	base     string
	http     *http.Client
	retry    RetryPolicy
	counters *transportCounters

	mu    sync.Mutex
	nonce string     // coordinator nonce adopted at registration
	rng   *rand.Rand // jitter
}

func newClient(base string, hc *http.Client, retry RetryPolicy) *client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	retry = retry.withDefaults()
	return &client{
		base:     base,
		http:     hc,
		retry:    retry,
		counters: &transportCounters{},
		rng:      rand.New(rand.NewSource(retry.Seed)),
	}
}

// resetNonce forgets the adopted coordinator nonce, so the next response
// (the registration reply) re-adopts whatever coordinator now answers.
func (c *client) resetNonce() {
	c.mu.Lock()
	c.nonce = ""
	c.mu.Unlock()
}

func (c *client) post(ctx context.Context, path string, in, out any) error {
	_, err := c.postStatus(ctx, path, in, out)
	return err
}

func (c *client) postStatus(ctx context.Context, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	return c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, out)
}

func (c *client) get(ctx context.Context, path string, out any) (int, error) {
	return c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	}, out)
}

// doRetry runs one RPC with the retry policy: transport errors, 5xx
// statuses and torn reply bodies back off and retry (the server may have
// processed the request, so every endpoint must tolerate duplicated
// delivery); 4xx statuses and coordinator restarts return immediately.
// Deadline-aware: a backoff that cannot fit before ctx's deadline is not
// slept through — the last error returns instead.
func (c *client) doRetry(ctx context.Context, build func() (*http.Request, error), out any) (int, error) {
	delay := c.retry.BaseDelay
	var status int
	var err error
	for attempt := 1; ; attempt++ {
		var req *http.Request
		req, err = build()
		if err != nil {
			return 0, err
		}
		status, err = c.do(req, out)
		if err == nil {
			return status, nil
		}
		if errors.Is(err, ErrCoordinatorRestarted) || ctx.Err() != nil || !retryable(status) {
			return status, err
		}
		if attempt >= c.retry.MaxAttempts {
			c.counters.addGiveUp()
			return status, err
		}
		c.counters.addRetry(isTimeout(err))
		d := c.jitter(delay)
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) <= d {
			return status, err
		}
		if !sleepCtx(ctx, d) {
			return status, err
		}
		delay *= 2
		if delay > c.retry.MaxDelay {
			delay = c.retry.MaxDelay
		}
	}
}

// jitter spreads d by ±retryJitter/2, deterministically from the policy
// seed.
func (c *client) jitter(d time.Duration) time.Duration {
	c.mu.Lock()
	f := 1 + retryJitter*(c.rng.Float64()-0.5)
	c.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// retryable reports whether a failed attempt may be retried: transport
// errors (status 0), server errors, and decode failures of an OK reply
// (status 200 with a torn body).  Client errors (4xx) are deterministic
// rejections and never retried.
func retryable(status int) bool {
	return status == 0 || status >= 500 || status == http.StatusOK
}

// isTimeout classifies an attempt error as a timeout for the health
// counters.
func isTimeout(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// do runs one attempt and enforces the nonce fence: the first nonce seen
// is adopted, and any later flip aborts with ErrCoordinatorRestarted
// before the caller can act on a reply from the wrong coordinator
// incarnation.
func (c *client) do(req *http.Request, out any) (int, error) {
	c.mu.Lock()
	if c.nonce != "" {
		req.Header.Set(NonceHeader, c.nonce)
	}
	c.mu.Unlock()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if n := resp.Header.Get(NonceHeader); n != "" {
		c.mu.Lock()
		prev := c.nonce
		if prev == "" {
			c.nonce = n
		}
		c.mu.Unlock()
		if prev != "" && prev != n {
			io.Copy(io.Discard, resp.Body)
			c.counters.addRestart()
			return resp.StatusCode, fmt.Errorf("%w: nonce %s -> %s", ErrCoordinatorRestarted, prev, n)
		}
	}
	if resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	if err := decodeReply(resp.Body, out); err != nil {
		// A truncated, corrupted or oversized reply body: the server
		// processed the request, but the caller has no usable answer.
		// Report the OK status so retryable() classifies it as a torn
		// reply.
		return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
	}
	return resp.StatusCode, nil
}

// decodeReply decodes one JSON reply, reading at most maxWireBody bytes: a
// reply cut off at the cap fails to decode like any other torn body, so a
// confused or hostile coordinator cannot make a shard read without bound.
func decodeReply(body io.Reader, out any) error {
	return json.NewDecoder(io.LimitReader(body, maxWireBody)).Decode(out)
}
