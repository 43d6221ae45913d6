package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"svto/internal/gen"
	"svto/internal/jobs"
	"svto/internal/netlist"
	"svto/pkg/svto"
)

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

func postJob(t *testing.T, url string, req svto.Request) jobs.View {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s: %s", resp.Status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func getJob(t *testing.T, url, id string) jobs.View {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: %s: %s", id, resp.Status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitDone(t *testing.T, url, id string, timeout time.Duration) jobs.View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, url, id)
		if v.Status == jobs.StatusDone {
			return v
		}
		if v.Status.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (err %q)", id, v.Status, v.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func fetchArtifact(t *testing.T, url, id, kind string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", url, id, kind))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s/%s: %s: %s", id, kind, resp.Status, raw)
	}
	return raw
}

func TestJobAPIEndToEnd(t *testing.T) {
	mgr, err := jobs.Open(jobs.Config{StateDir: t.TempDir(), Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(newHandler(mgr, nil, false))
	defer srv.Close()

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}

	// Malformed submissions fail at the boundary.
	for _, body := range []string{
		"{not json", `{"unknown_field": 1}`, `{}`,
		// The retired portfolio field is unknown, and negative search
		// budgets fail validation, so neither is queued.
		`{"design":{"benchmark":"c432"},"search":{"portfolio":true}}`,
		`{"design":{"benchmark":"c432"},"search":{"refine_passes":-1}}`,
		// Baseline vector counts are bounded on both sides.
		`{"design":{"benchmark":"c432"},"search":{"baseline_vectors":-1}}`,
		`{"design":{"benchmark":"c432"},"search":{"baseline_vectors":2000000000}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: %s, want 400", body, resp.Status)
		}
	}

	v := postJob(t, srv.URL, svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, "api", 3, 8, 40), Name: "api"},
		Search: svto.SearchSpec{Penalty: 0.05, BaselineVectors: 100},
	})
	done := waitDone(t, srv.URL, v.ID, 60*time.Second)
	if len(done.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	var res svto.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.LeakNA <= 0 || res.BaselineNA <= res.LeakNA {
		t.Errorf("leak %v, baseline %v", res.LeakNA, res.BaselineNA)
	}

	csv := fetchArtifact(t, srv.URL, v.ID, "csv")
	if len(csv) == 0 {
		t.Error("empty csv artifact")
	}
	for _, kind := range []string{"verilog", "liberty", "report", "result"} {
		if len(fetchArtifact(t, srv.URL, v.ID, kind)) == 0 {
			t.Errorf("empty %s artifact", kind)
		}
	}

	// Listing includes the job; unknown jobs and kinds are 404s; deleting
	// a finished job purges it.
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != v.ID {
		t.Errorf("list = %+v", list)
	}
	for path, want := range map[string]int{
		"/v1/jobs/nope":                      http.StatusNotFound,
		"/v1/jobs/" + v.ID + "/artifacts/gz": http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: %s, want %d", path, resp.Status, want)
		}
	}
	cancelResp, err := http.Post(srv.URL+"/v1/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cancelResp.Body.Close()
	if cancelResp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: %s, want 409", cancelResp.Status)
	}
	del := func(id string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(v.ID); code != http.StatusNoContent {
		t.Errorf("delete finished job: %d, want 204", code)
	}
	if code := del(v.ID); code != http.StatusNotFound {
		t.Errorf("delete deleted job: %d, want 404", code)
	}
	if resp, err := http.Get(srv.URL + "/v1/jobs/" + v.ID); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("get deleted job: %s, want 404", resp.Status)
		}
	}
}

// TestRestartResume exercises the durability protocol over the HTTP
// surface: stop the daemon mid-search, start a new one on the same state
// directory, and the job finishes with checkpoint-resume provenance.
func TestRestartResume(t *testing.T) {
	state := t.TempDir()
	cfg := jobs.Config{
		StateDir:           state,
		Concurrency:        1,
		CheckpointInterval: 25 * time.Millisecond,
	}
	mgr1, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newHandler(mgr1, nil, false))

	v := postJob(t, srv1.URL, svto.Request{
		Design: svto.DesignSpec{Bench: benchText(t, "restart", 11, 12, 90), Name: "restart"},
		Search: svto.SearchSpec{
			Algorithm:    svto.Heuristic2,
			Penalty:      0.05,
			Workers:      1,
			TimeLimitSec: 300,
		},
	})
	ckpt := filepath.Join(state, "jobs", v.ID+".ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if got := getJob(t, srv1.URL, v.ID); got.Status.Terminal() {
			t.Fatalf("job finished before first checkpoint: %q", got.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Close()
	if err := mgr1.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2, err := jobs.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr2.Close()
	srv2 := httptest.NewServer(newHandler(mgr2, nil, false))
	defer srv2.Close()

	done := waitDone(t, srv2.URL, v.ID, 120*time.Second)
	if done.Resumes == 0 {
		t.Error("restarted job reports zero Resumes")
	}
	var res svto.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.PriorRuntime <= 0 {
		t.Errorf("provenance: resumed %v prior %v", res.Resumed, res.PriorRuntime)
	}
	if len(fetchArtifact(t, srv2.URL, v.ID, "csv")) == 0 {
		t.Error("empty csv after resume")
	}
}
