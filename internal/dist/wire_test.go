package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"svto/internal/checkpoint"
	"svto/pkg/svto"
)

// TestOversizedReplyFailsDecode: a coordinator answering 200 with an
// endless body fails the call with a decode error once the shard has read
// maxWireBody bytes; the shard hangs up instead of reading without bound.
func TestOversizedReplyFailsDecode(t *testing.T) {
	var written atomic.Int64
	done := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		w.Header().Set("Content-Type", "application/json")
		n, _ := w.Write([]byte(`{"job_id":"`))
		written.Add(int64(n))
		chunk := bytes.Repeat([]byte("a"), 64<<10)
		for written.Load() < 2*maxWireBody {
			n, err := w.Write(chunk)
			written.Add(int64(n))
			if err != nil {
				return
			}
		}
	}))
	defer srv.Close()

	cl := newClient(srv.URL, nil, RetryPolicy{MaxAttempts: 1})
	var info JobInfo
	status, err := cl.get(context.Background(), "/job", &info)
	if err == nil || !strings.Contains(err.Error(), "decoding reply") {
		t.Fatalf("oversized reply: status %d, err %v; want a decode error", status, err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("server still streaming 30s after the shard gave up")
	}
	if w := written.Load(); w >= 2*maxWireBody {
		t.Fatalf("shard read the whole %d-byte reply; the cap is %d", w, maxWireBody)
	}
}

// FuzzWire feeds arbitrary bytes to both decoders of the wire protocol:
// the coordinator's request decode for every request type and the shard's
// reply decode for every reply type.  Neither may panic; a body either
// fails to decode (a 4xx for requests) or yields a value that re-encodes.
func FuzzWire(f *testing.F) {
	inc := &checkpoint.Incumbent{State: []bool{true, false}, Choices: [][2]int32{{0, 1}}, Leak: 12.5, Isub: 3, Delay: 100}
	for _, v := range []any{
		RegisterRequest{Shard: "s1", Workers: 2, Health: &ShardHealth{Retries: 1}},
		LeaseRequest{Shard: "s1", JobID: "j1"},
		CompleteRequest{Shard: "s1", JobID: "j1", LeaseID: 3, Remaining: []int64{7}, Incumbent: inc},
		SyncRequest{Shard: "s1", JobID: "j1", Epoch: 2, Incumbent: inc},
		JobInfo{JobID: "j1", Request: svto.Request{Design: svto.DesignSpec{Benchmark: "c432"}}, SplitDepth: 3, Fingerprint: 42},
		LeaseReply{LeaseID: 1, TaskIDs: []int64{0}, Tasks: [][]byte{{0, 1, 2}}, Incumbent: inc, Epoch: 1},
		SyncReply{Epoch: 1, Incumbent: inc, Done: true},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{"", "null", "{}", "[]", `{"shard":`, `{"tasks":["!"]}`, `{"epoch":1e999}`, "\xff"} {
		f.Add([]byte(s))
	}
	requests := []func() any{
		func() any { return new(RegisterRequest) },
		func() any { return new(LeaseRequest) },
		func() any { return new(CompleteRequest) },
		func() any { return new(SyncRequest) },
	}
	replies := []func() any{
		func() any { return new(JobInfo) },
		func() any { return new(LeaseReply) },
		func() any { return new(SyncReply) },
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, newValue := range requests {
			v := newValue()
			rec := httptest.NewRecorder()
			rq := httptest.NewRequest(http.MethodPost, APIPrefix+"/lease", bytes.NewReader(body))
			if !decodeJSON(rec, rq, v) {
				if rec.Code < 400 || rec.Code >= 500 {
					t.Fatalf("%T: rejected with status %d", v, rec.Code)
				}
				continue
			}
			if _, err := json.Marshal(v); err != nil {
				t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
			}
		}
		for _, newValue := range replies {
			v := newValue()
			if decodeReply(bytes.NewReader(body), v) != nil {
				continue
			}
			if _, err := json.Marshal(v); err != nil {
				t.Fatalf("%T: decoded value does not re-encode: %v", v, err)
			}
		}
	})
}
