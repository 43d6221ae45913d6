package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"svto/internal/core"
	"svto/internal/jobs"
	"svto/pkg/svto"
)

// buildRequest assembles the daemon wire request from the same flags the
// local flow uses, so `leakopt -submit` and a local run describe identical
// work.  The -in netlist is inlined into the spec: the request is
// self-contained and the daemon never needs the client's filesystem.
// The method has already been normalized by normalizeMethod, so validation
// is exactly core.ParseAlgorithm — the same parser the daemon applies on
// the other side of the wire.
func buildRequest(benchName, inFile, method, libOpt string, penalty, heu2sec float64,
	workers int, maxLeaves int64, vectors, reportTop int, fuse, standby bool) (svto.Request, error) {

	coreAlg, err := core.ParseAlgorithm(method)
	if err != nil {
		return svto.Request{}, fmt.Errorf("method %q cannot run remotely (use heuristic1|heuristic2|exact|state-only)", method)
	}
	var limitSec float64
	if coreAlg == core.AlgHeuristic2 {
		limitSec = heu2sec
	}
	alg := svto.Algorithm(coreAlg.String())

	req := svto.Request{
		Design:  svto.DesignSpec{Benchmark: benchName, Fuse: fuse},
		Library: svto.LibrarySpec{Policy: svto.Library(libOpt)},
		Search: svto.SearchSpec{
			Algorithm:       alg,
			Penalty:         penalty / 100,
			TimeLimitSec:    limitSec,
			Workers:         workers,
			MaxLeaves:       maxLeaves,
			BaselineVectors: vectors,
		},
		Output: svto.OutputSpec{ReportTop: reportTop, StandbyBench: standby},
	}
	if inFile != "" {
		data, err := os.ReadFile(inFile)
		if err != nil {
			return svto.Request{}, err
		}
		name := filepath.Base(inFile)
		if strings.HasSuffix(inFile, ".v") {
			req.Design.Verilog = string(data)
			req.Design.Name = strings.TrimSuffix(name, ".v")
		} else {
			req.Design.Bench = string(data)
			req.Design.Name = strings.TrimSuffix(name, ".bench")
		}
	}
	return req, nil
}

// dumpRequest writes the wire JSON for req to path ("-" = stdout), so a
// request can be inspected, version-controlled, or curl'd by hand.
func dumpRequest(req svto.Request, path string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(req)
}

// submit POSTs the request to a leakoptd instance, polls the job to
// completion (canceling it server-side if ctx is interrupted), prints the
// result summary (plus -stats search counters when showStats is set), and
// downloads any requested artifacts.
func submit(ctx context.Context, baseURL string, req svto.Request, csvOut, emitWrap string, showStats bool) error {
	baseURL = strings.TrimRight(baseURL, "/")
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	post, err := http.NewRequestWithContext(ctx, http.MethodPost,
		baseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return err
	}
	post.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(post)
	if err != nil {
		return err
	}
	v, err := decodeView(resp)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Printf("submitted job %s (%s)\n", v.ID, v.Status)

	for !v.Status.Terminal() {
		select {
		case <-ctx.Done():
			// Best-effort server-side cancel so an abandoned client does
			// not leave the job burning budget.
			cancel, _ := http.NewRequest(http.MethodPost, baseURL+"/v1/jobs/"+v.ID+"/cancel", nil)
			http.DefaultClient.Do(cancel)
			return fmt.Errorf("interrupted; canceled job %s", v.ID)
		case <-time.After(500 * time.Millisecond):
		}
		get, err := http.NewRequestWithContext(ctx, http.MethodGet,
			baseURL+"/v1/jobs/"+v.ID, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(get)
		if err != nil {
			return err
		}
		if v, err = decodeView(resp); err != nil {
			return err
		}
		if p := v.Progress; p != nil && v.Status == jobs.StatusRunning {
			fmt.Printf("  [%6.1fs] best=%8.2f µA  nodes=%d leaves=%d pruned=%d\n",
				p.Elapsed.Seconds(), p.BestLeakNA/1000, p.StateNodes, p.Leaves, p.Pruned)
		}
	}
	if v.Status != jobs.StatusDone {
		return fmt.Errorf("job %s: %s: %s", v.ID, v.Status, v.Error)
	}

	var res svto.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	note := ""
	if res.Interrupted {
		note = " (interrupted)"
	}
	if res.Resumed {
		note += fmt.Sprintf(" (resumed, %v prior)", res.PriorRuntime.Round(time.Millisecond))
	}
	ratio := ""
	if x := res.ReductionX(); x > 0 {
		ratio = fmt.Sprintf("  (%.1fX)", x)
	}
	fmt.Printf("%-12s leak=%8.2f µA%s  Isub=%7.2f µA  delay=%6.0f ps  [%v]%s\n",
		string(req.Search.Algorithm), res.LeakNA/1000, ratio, res.IsubNA/1000,
		res.DelayPS, res.Stats.Runtime.Round(time.Millisecond), note)
	if showStats {
		// Same shape the local -stats print uses, fed from the daemon's
		// result document — which in cluster mode carries the counters
		// merged across every shard.
		fmt.Printf("             state nodes %d, gate trials %d, leaves %d, pruned %d\n",
			res.Stats.StateNodes, res.Stats.GateTrials, res.Stats.Leaves, res.Stats.Pruned)
		if res.Stats.RelaxBounds > 0 {
			fmt.Printf("             relax probes %d (pruned %d)\n",
				res.Stats.RelaxBounds, res.Stats.RelaxPruned)
		}
		if res.Resumed {
			fmt.Printf("             resumed run: %v of runtime carried from prior run(s)\n",
				res.PriorRuntime.Round(time.Millisecond))
		}
		if res.Stats.CheckpointWrites > 0 || res.Stats.CheckpointErrors > 0 {
			fmt.Printf("             checkpoint writes %d (errors %d)\n",
				res.Stats.CheckpointWrites, res.Stats.CheckpointErrors)
		}
		printClusterHealth(ctx, baseURL)
	}
	for _, wf := range res.WorkerFailures {
		fmt.Fprintf(os.Stderr, "leakopt: warning: %s\n", wf)
	}

	fetch := func(kind, path string) error {
		get, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", baseURL, v.ID, kind), nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(get)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("artifact %s: %s: %s", kind, resp.Status, raw)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if _, err := io.Copy(f, resp.Body); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}
	if csvOut != "" {
		if err := fetch("csv", csvOut); err != nil {
			return err
		}
	}
	if emitWrap != "" {
		if err := fetch("standby-bench", emitWrap); err != nil {
			return err
		}
	}
	return nil
}

// printClusterHealth fetches GET /v1/stats and, when the daemon runs in
// cluster mode, prints per-shard and coordinator transport degradation —
// retries, timeouts, re-registrations, duplicate completions — so a lossy
// network is visible right where the result is read.  Best-effort: a
// daemon without the endpoint (or not in cluster mode) prints nothing.
func printClusterHealth(ctx context.Context, baseURL string) {
	get, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(get)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	var stats jobs.StatsView
	if json.NewDecoder(resp.Body).Decode(&stats) != nil || stats.Cluster == nil {
		return
	}
	cl := stats.Cluster
	for _, s := range cl.Shards {
		live := "live"
		if !s.Live {
			live = "lost"
		}
		line := fmt.Sprintf("             shard %-12s %s, %d workers", s.Name, live, s.Workers)
		if h := s.Health; h != nil && (h.Retries > 0 || h.GiveUps > 0 || h.Reregistrations > 0 || h.RestartsSeen > 0) {
			line += fmt.Sprintf("; retries %d (timeouts %d), give-ups %d, re-registrations %d, restarts seen %d",
				h.Retries, h.Timeouts, h.GiveUps, h.Reregistrations, h.RestartsSeen)
		}
		fmt.Println(line)
	}
	h := cl.Health
	if h.DuplicateCompletions > 0 || h.LateCompletions > 0 || h.LeaseExpiries > 0 || h.StaleNonceRequests > 0 {
		fmt.Printf("             coordinator: duplicate completions %d, late completions %d, lease expiries %d, stale-nonce rejections %d\n",
			h.DuplicateCompletions, h.LateCompletions, h.LeaseExpiries, h.StaleNonceRequests)
	}
}

// decodeView reads a jobs.View response, surfacing the daemon's error
// document on non-2xx statuses.
func decodeView(resp *http.Response) (jobs.View, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobs.View{}, err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return jobs.View{}, fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return jobs.View{}, fmt.Errorf("%s: %s", resp.Status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		return jobs.View{}, err
	}
	return v, nil
}
