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
	"svto/internal/netlist"
	"svto/internal/seq"
	"svto/pkg/svto"
)

// buildRequest assembles the job request the flags describe: the work a
// local run solves in-process and -submit posts to a daemon.  The -in
// netlist is inlined into the spec, so the request is self-contained and
// the daemon never needs the client's filesystem; with -seq the inlined
// netlist is the combinational cut, returned alongside for splitting the
// sleep vector.  The local-only methods ride on a request too: compare is
// a heuristic2 request that run also solves as state-only and heuristic1,
// vt-state a heuristic1 request that run solves over the Vt-only library.
func buildRequest(o *options) (svto.Request, *seq.Circuit, error) {
	if err := svto.CheckBaselineVectors(o.vectors); err != nil {
		return svto.Request{}, nil, fmt.Errorf("-vectors: %w", err)
	}
	alg := svto.Algorithm(o.method)
	switch o.method {
	case "compare":
		alg = svto.Heuristic2
	case "vt-state":
		alg = svto.Heuristic1
	default:
		if _, err := core.ParseAlgorithm(o.method); err != nil {
			return svto.Request{}, nil, fmt.Errorf("unknown method %q", o.method)
		}
	}
	var limitSec float64
	if alg == svto.Heuristic2 {
		limitSec = o.heu2sec
	}
	req := svto.Request{
		Design:  svto.DesignSpec{Benchmark: o.bench, Fuse: o.fuse},
		Library: svto.LibrarySpec{Policy: svto.Library(o.library)},
		Search: svto.SearchSpec{
			Algorithm:       alg,
			Penalty:         o.penalty / 100,
			TimeLimitSec:    limitSec,
			Workers:         o.workers,
			MaxLeaves:       o.maxLeaves,
			BaselineVectors: o.vectors,
		},
		Output: svto.OutputSpec{ReportTop: o.reportTop, StandbyBench: o.emitWrap != ""},
	}
	switch {
	case (o.bench == "") == (o.in == ""):
		return svto.Request{}, nil, fmt.Errorf("set exactly one of -bench and -in")
	case o.seq && o.in == "":
		return svto.Request{}, nil, fmt.Errorf("-seq requires -in")
	case o.in == "":
		return req, nil, nil
	}
	data, err := os.ReadFile(o.in)
	if err != nil {
		return svto.Request{}, nil, err
	}
	name := filepath.Base(o.in)
	switch {
	case o.seq:
		req.Design.Name = strings.TrimSuffix(name, ".bench")
		cut, err := seq.ReadBench(bytes.NewReader(data), req.Design.Name)
		if err != nil {
			return svto.Request{}, nil, err
		}
		var comb strings.Builder
		if err := netlist.WriteBench(&comb, cut.Comb); err != nil {
			return svto.Request{}, nil, err
		}
		req.Design.Bench = comb.String()
		return req, cut, nil
	case strings.HasSuffix(name, ".v"):
		req.Design.Verilog = string(data)
		req.Design.Name = strings.TrimSuffix(name, ".v")
	default:
		req.Design.Bench = string(data)
		req.Design.Name = strings.TrimSuffix(name, ".bench")
	}
	return req, nil, nil
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
// result to w through the summary a local run uses (plus the cluster
// health with -stats), and fetches the -report table and any requested
// files from the job's artifacts.
func submit(ctx context.Context, w io.Writer, o *options, req svto.Request, cut *seq.Circuit) error {
	baseURL := strings.TrimRight(o.submitURL, "/")
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
	fmt.Fprintf(w, "submitted job %s (%s)\n", v.ID, v.Status)

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
		if v.Progress != nil && v.Status == jobs.StatusRunning {
			printProgress(w, *v.Progress)
		}
	}
	if v.Status != jobs.StatusDone {
		return fmt.Errorf("job %s: %s: %s", v.ID, v.Status, v.Error)
	}

	var res svto.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fmt.Errorf("result document: %w", err)
	}
	printResult(w, string(req.Search.Algorithm), req, &res, o)
	if o.stats {
		printClusterHealth(ctx, w, baseURL)
	}
	if cut != nil {
		if err := printSeqVector(w, cut, res.SleepVector); err != nil {
			return err
		}
	}

	// fetch hands one of the job's artifacts to deliver.
	fetch := func(kind string, deliver func(io.Reader) error) error {
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
		return deliver(resp.Body)
	}
	save := func(path string) func(io.Reader) error {
		return func(body io.Reader) error {
			return writeFile(w, path, func(f io.Writer) error {
				_, err := io.Copy(f, body)
				return err
			})
		}
	}
	// The same order a local run's report uses.
	if o.emitWrap != "" {
		if err := fetch("standby-bench", save(o.emitWrap)); err != nil {
			return err
		}
	}
	if o.reportTop > 0 {
		err := fetch("report", func(body io.Reader) error {
			fmt.Fprintln(w)
			_, err := io.Copy(w, body)
			return err
		})
		if err != nil {
			return err
		}
	}
	if o.csvOut != "" {
		return fetch("csv", save(o.csvOut))
	}
	return nil
}

// printClusterHealth fetches GET /v1/stats and, when the daemon runs in
// cluster mode, prints per-shard and coordinator transport degradation —
// retries, timeouts, re-registrations, duplicate completions — so a lossy
// network is visible right where the result is read.  Best-effort: a
// daemon without the endpoint (or not in cluster mode) prints nothing.
func printClusterHealth(ctx context.Context, w io.Writer, baseURL string) {
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
		fmt.Fprintln(w, line)
	}
	h := cl.Health
	if h.DuplicateCompletions > 0 || h.LateCompletions > 0 || h.LeaseExpiries > 0 || h.StaleNonceRequests > 0 {
		fmt.Fprintf(w, "             coordinator: duplicate completions %d, late completions %d, lease expiries %d, stale-nonce rejections %d\n",
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
