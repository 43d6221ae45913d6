// Command leakoptd serves standby-leakage optimization as a job API.
//
//	leakoptd -state /var/lib/leakoptd [-addr :8080]
//
// Endpoints:
//
//	POST   /v1/jobs                        submit a svto.Request (JSON)
//	GET    /v1/jobs                        list jobs, newest first
//	GET    /v1/jobs/{id}                   status + live progress / result
//	GET    /v1/jobs/{id}/artifacts/{kind}  verilog | liberty | csv | report |
//	                                       result | standby-bench
//	POST   /v1/jobs/{id}/cancel            cancel (204; 409 if finished)
//	DELETE /v1/jobs/{id}                   delete a non-running job and all
//	                                       its state — record, checkpoint,
//	                                       artifacts (204; 409 if running)
//	GET    /v1/stats                       queue depth, running-job search
//	                                       counters, baseline builds, shards
//	GET    /healthz                        liveness
//
// Jobs are durable: requests and checkpoints live under the state
// directory, and a restarted daemon adopts and resumes every job that was
// queued or in flight when the previous process died — gracefully (SIGTERM
// checkpoints each in-flight search before exiting) or not (SIGKILL; the
// last periodic snapshot is resumed instead).
//
// Cluster mode distributes each tree search across worker processes:
//
//	leakoptd -state /var/lib/leakoptd -cluster        # coordinator
//	leakoptd -shard -coordinator http://host:8080     # worker shard (xN)
//
// The coordinator additionally serves the shard wire protocol under
// /cluster/v1/ and shards jobs only while at least one worker is
// registered; shards hold no durable state and may be killed freely — the
// coordinator re-queues their leased tasks.  -debug mounts net/http/pprof
// under /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"svto/internal/dist"
	"svto/internal/jobs"
	"svto/pkg/svto"
)

// maxRequestBytes caps a job submission's JSON body: far above any real
// netlist request, far below anything that could exhaust memory.
const maxRequestBytes = 64 << 20

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		state    = flag.String("state", "", "state directory for durable jobs (required)")
		queue    = flag.Int("queue", 64, "max queued jobs before submissions are rejected")
		conc     = flag.Int("jobs", 2, "jobs executing concurrently")
		workers  = flag.Int("job-workers", 1, "per-job search worker cap (1 = deterministic); in -shard mode, this shard's local worker cap")
		maxTime  = flag.Duration("max-time", 15*time.Minute, "per-job search time cap")
		maxLeaf  = flag.Int64("max-leaves", 0, "per-job leaf budget cap (0 = uncapped)")
		interval = flag.Duration("checkpoint-interval", 5*time.Second, "snapshot cadence for tree searches")
		debug    = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")

		cluster   = flag.Bool("cluster", false, "coordinator mode: distribute tree searches across registered shards")
		shardMode = flag.Bool("shard", false, "shard mode: work for a coordinator instead of serving the job API")
		coordURL  = flag.String("coordinator", "", "coordinator base URL (required with -shard)")
		shardName = flag.String("shard-name", "", "shard name (default hostname-pid)")
	)
	flag.Parse()

	if *shardMode {
		if *coordURL == "" {
			fmt.Fprintln(os.Stderr, "leakoptd: -shard requires -coordinator")
			flag.Usage()
			os.Exit(2)
		}
		cfg := dist.ShardConfig{
			Coordinator: *coordURL,
			Name:        *shardName,
			Workers:     *workers,
			Logf:        log.Printf,
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		if err := dist.RunShard(ctx, cfg); err != nil {
			log.Fatalf("leakoptd: %v", err)
		}
		log.Print("leakoptd: shard stopped, bye")
		return
	}

	if *state == "" {
		fmt.Fprintln(os.Stderr, "leakoptd: -state is required")
		flag.Usage()
		os.Exit(2)
	}

	var coord *dist.Coordinator
	if *cluster {
		coord = dist.New(dist.Config{Logf: log.Printf})
	}
	mgr, err := jobs.Open(jobs.Config{
		StateDir:           *state,
		QueueSize:          *queue,
		Concurrency:        *conc,
		JobWorkers:         *workers,
		MaxTimeLimit:       *maxTime,
		MaxLeaves:          *maxLeaf,
		CheckpointInterval: *interval,
		Cluster:            coord,
	})
	if err != nil {
		log.Fatalf("leakoptd: %v", err)
	}
	if orphans := mgr.Orphans(); len(orphans) > 0 {
		log.Printf("leakoptd: %d orphan snapshot(s) in state dir: %v", len(orphans), orphans)
	}

	// Slowloris/resource hardening: bound how long a client may dribble
	// headers or a body and how long idle keep-alives are held.  No
	// WriteTimeout — artifact downloads and long GETs are legitimate.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(mgr, coord, *debug),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Print("leakoptd: shutting down (checkpointing in-flight jobs)")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()

	log.Printf("leakoptd: serving on %s, state %s", *addr, *state)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("leakoptd: %v", err)
	}
	// Close after the listener stops: in-flight searches get canceled,
	// write their final snapshots, and persist as interrupted.
	if err := mgr.Close(); err != nil {
		log.Printf("leakoptd: close: %v", err)
	}
	log.Print("leakoptd: state checkpointed, bye")
}

// newHandler wires the job API onto a mux; separated from main so tests
// can serve a Manager through httptest.  coord (coordinator mode) mounts
// the shard wire protocol; debug mounts pprof.
func newHandler(mgr *jobs.Manager, coord *dist.Coordinator, debug bool) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, mgr.Stats())
	})

	if coord != nil {
		mux.Handle(dist.APIPrefix+"/", coord.Handler())
	}
	if debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req svto.Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", int64(maxRequestBytes)))
				return
			}
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		v, err := mgr.Submit(req)
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, jobs.ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		case err != nil:
			httpError(w, http.StatusBadRequest, err)
		default:
			writeJSON(w, http.StatusCreated, v)
		}
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, mgr.List())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := mgr.Get(r.PathValue("id"))
		if err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{kind}", func(w http.ResponseWriter, r *http.Request) {
		path, err := mgr.Artifact(r.PathValue("id"), r.PathValue("kind"))
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, jobs.ErrNoArtifact):
			httpError(w, http.StatusNotFound, err)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
		default:
			http.ServeFile(w, r, path)
		}
	})

	mux.HandleFunc("POST /v1/jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		err := mgr.Cancel(r.PathValue("id"))
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, jobs.ErrFinished):
			httpError(w, http.StatusConflict, err)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := mgr.Delete(r.PathValue("id"))
		switch {
		case errors.Is(err, jobs.ErrNotFound):
			httpError(w, http.StatusNotFound, err)
		case errors.Is(err, jobs.ErrRunning):
			httpError(w, http.StatusConflict, err)
		case err != nil:
			httpError(w, http.StatusInternalServerError, err)
		default:
			w.WriteHeader(http.StatusNoContent)
		}
	})

	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
