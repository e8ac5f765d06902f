// Command cobrad is the long-running COBRA/BIPS campaign service: an
// HTTP/JSON front end over the internal/batch subsystem. Submit a
// campaign, poll its status, stream its per-trial results:
//
//	cobrad -addr :8080 -data /var/lib/cobrad &
//	curl -X POST localhost:8080/v1/campaigns -d \
//	  '{"graph":"ba:200000:3","process":"cobra","branch":2,"trials":1000,"seed":1}'
//	curl localhost:8080/v1/campaigns/c000001
//	curl localhost:8080/v1/campaigns/c000001/results   # NDJSON, follows live
//
// Parameter sweeps fan one submission across a grid of cells (graphs x
// processes x branches x rhos), compiling each distinct graph once into
// the shared cache. Up to cell_workers cells are open at once — the
// sweep's field, defaulting to -cell-workers — and cell_workers × workers
// goroutines claim their trials, behind a reorder buffer, so the result
// stream and aggregates stay in (cell, trial) order no matter which
// trials finish first; the status endpoint reports each cell's
// scheduler phase (queued/running/done, failed on abort) while the
// sweep is in flight:
//
//	curl -X POST localhost:8080/v1/sweeps -d \
//	  '{"graphs":["ws:2048:8:0","ws:2048:8:0.1"],"processes":["cobra"],"branches":[2,3],"trials":100,"seed":1}'
//	curl localhost:8080/v1/sweeps/s000001           # per-cell aggregates + phases
//	curl localhost:8080/v1/sweeps/s000001/results   # NDJSON in (cell, trial) order
//	curl localhost:8080/v1/sweeps/s000001/table     # cross-cell summary grid
//
// With -data, jobs are durable: every accepted submission is journaled
// (spec header fsynced before the 202, results appended as trials
// commit, a terminal record sealing finished jobs), and on startup the
// journals are replayed — finished jobs come back with their results
// served from disk, while interrupted or queued jobs *resume*: the
// committed journal prefix is replayed into RAM and served to results
// clients as-is, and only the trials past it are recomputed. Because
// campaigns are deterministic in (graph, process config, seed, trial),
// the resumed stream is identical to what an uninterrupted run would
// have produced byte for byte: kill -TERM a cobrad mid-campaign, restart
// it on the same -data directory, and the recovered NDJSON matches the
// golden while /v1/stats trials_executed shows only the tail ran (CI's
// restart-recovery smoke asserts both). Journals recovery cannot parse
// are quarantined to <id>.ndjson.corrupt with a logged reason. -retain
// and -retain-ttl bound how many finished jobs keep per-trial results in
// RAM; evicted jobs serve their results from the journal byte-for-byte
// (TTL expiry runs on a background ticker, so idle servers release
// memory too).
//
// The queue is priority-ordered: specs (or ?priority=/?deadline= query
// parameters on submission) may carry a priority — higher runs first,
// ties in submission order — and an RFC3339 deadline by which the job
// must have started; jobs still queued past their deadline fail with
// the distinct terminal state "expired". Sweep cells inherit their
// sweep's priority. With -preempt, a submission that outranks every
// running job checkpoints the lowest-priority one at its next trial
// boundary: the victim's journal (when -data is set) is fsynced, the job
// requeues at its own priority (status reports the preemption count),
// and when it runs again it resumes from the checkpointed prefix —
// elastic scheduling with byte-identical results.
//
// On shutdown no job is left non-terminal: running jobs abort, queued
// jobs are drained and marked failed (requeued on the next start when
// -data is set), and truncated results streams carry the
// X-Cobrad-Stream: aborted trailer (complete streams say "complete").
//
// Observability (all observe-only — nothing feeds back into scheduling
// or results):
//
//	GET /metrics                    Prometheus text exposition: trials,
//	                                rounds by representation, queue depth
//	                                by priority band, admission-wait and
//	                                per-cell wall-time histograms, graph
//	                                cache hits/misses/evictions, journal
//	                                appends/fsync latency/quarantines,
//	                                resume-tail sizes, live event streams
//	GET /v1/stats                   the same counters as one JSON object
//	GET /v1/campaigns/{id}/events   per-job lifecycle as server-sent
//	GET /v1/sweeps/{id}/events      events (state, cell phases, end)
//
// Logs are structured (log/slog) with job ids and states as fields;
// -log-format selects text (default) or json lines on stderr. -watch
// turns cobrad into a client: it polls a running server's /v1/stats and
// job listings every -interval and renders a status table to stdout.
//
// Fleet mode (-role, see internal/fleet and docs/api.md) shards sweeps
// across processes with zero change to results:
//
//	cobrad -role coordinator -addr :8080 -data /var/lib/cobrad -lease-ttl 10s &
//	cobrad -role worker -coordinator http://coord:8080 -worker-id w1 &
//	cobrad -role worker -coordinator http://coord:8080 -worker-id w2 &
//
// The coordinator serves the full cobrad API plus the lease protocol
// (POST /v1/leases/{acquire,renew,complete}, /v1/fleet status); sweep
// cells, and campaigns as one-cell jobs, are leased to workers instead
// of computed locally, their result batches merge through the same
// reorder buffer, and the streams,
// aggregates, journal, and events are byte-identical to -role
// standalone (the default). A worker that dies mid-cell simply misses
// its heartbeat TTL: the lease expires and the cell's remaining trials
// are re-leased elsewhere, with the already-accepted prefix never
// recomputed. With -data, leases are journaled (leases.log) and survive
// coordinator restarts. A worker's first SIGTERM drains it — it
// finishes and completes its current cell, then exits; a second kills
// it, which costs only the lease TTL.
//
// Campaigns are deterministic in (graph, process config, seed, trial),
// and every sweep cell is byte-identical to the same spec submitted as a
// standalone campaign: resubmitting either — here or through the library
// — reproduces its results bit for bit. See internal/batch for the
// contract (ARCHITECTURE.md maps the layers; docs/api.md and
// docs/metrics.md are the wire and metrics references). The -max-trials
// cap applies to a sweep's total (cells x trials per cell).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/fleet"
	"github.com/repro/cobra/internal/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (with -watch: the server to poll)")
		campaigns   = flag.Int("campaigns", 2, "campaigns running concurrently")
		cellWorkers = flag.Int("cell-workers", 2, "open cells per sweep when a sweep spec leaves cell_workers unset; a sweep computes on cell_workers x workers goroutines (never affects results)")
		queue       = flag.Int("queue", 64, "queued-campaign backlog before 503s")
		cacheSize   = flag.Int("cache", 32, "compiled-graph LRU cache capacity")
		maxTrials   = flag.Int("max-trials", 1_000_000, "per-campaign trial cap (results are retained in memory)")
		dataDir     = flag.String("data", "", "durable job store directory; journals are replayed on startup and interrupted jobs re-run (empty: in-memory only, a restart drops all jobs)")
		retain      = flag.Int("retain", 256, "with -data: finished jobs keeping per-trial results in RAM; older jobs serve results from their journals (negative: unlimited)")
		retainTTL   = flag.Duration("retain-ttl", 0, "with -data: additionally evict a finished job's in-RAM results after this long (0: no TTL)")
		preempt     = flag.Bool("preempt", false, "let higher-priority submissions checkpoint the lowest-priority running job at a trial boundary and requeue it; it later resumes from the checkpoint with byte-identical results")
		logFormat   = flag.String("log-format", "text", "structured log encoding on stderr: text or json")
		watch       = flag.Bool("watch", false, "client mode: poll the server at -addr and render a live status table instead of serving")
		interval    = flag.Duration("interval", 2*time.Second, "with -watch: polling interval")
		role        = flag.String("role", "standalone", "standalone (compute locally), coordinator (lease campaign and sweep cells to a worker fleet), or worker (pull cells from -coordinator)")
		coordURL    = flag.String("coordinator", "", "with -role worker: the coordinator's base URL")
		workerID    = flag.String("worker-id", "", "with -role worker: fleet worker id (default host-pid)")
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "with -role coordinator: lease heartbeat TTL; a worker silent this long loses its cell to re-lease")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobrad:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	if *watch {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runWatch(ctx, os.Stdout, watchBaseURL(*addr), *interval, 0); err != nil {
			fmt.Fprintln(os.Stderr, "cobrad:", err)
			os.Exit(1)
		}
		return
	}

	if *role == "worker" {
		runWorker(logger, *coordURL, *workerID, *cacheSize)
		return
	}
	if *role != "standalone" && *role != "coordinator" {
		fmt.Fprintf(os.Stderr, "cobrad: bad -role %q: want standalone, coordinator, or worker\n", *role)
		os.Exit(1)
	}

	var st batch.Store
	var ds *store.Store
	if *dataDir != "" {
		var err error
		ds, err = store.Open(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cobrad:", err)
			os.Exit(1)
		}
		st = ds
	}
	cfg := batch.ServerConfig{
		CampaignWorkers: *campaigns,
		CellWorkers:     *cellWorkers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		MaxTrials:       *maxTrials,
		RetainResults:   *retain,
		RetainTTL:       *retainTTL,
		Preempt:         *preempt,
		Logger:          logger,
	}

	// Coordinator role: build the lease authority first so recovered
	// sweeps re-offer their cells straight into the restored lease table,
	// then hand it to the server as the remote cell source. The fleet's
	// metric families join the server's registry — but the server is
	// constructed after the coordinator, so register against a fresh
	// registry-carrying server below via a two-step wiring.
	var co *fleet.Coordinator
	if *role == "coordinator" {
		var err error
		co, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
			TTL:    *leaseTTL,
			Store:  ds,
			Logger: logger,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cobrad: lease table:", err)
			os.Exit(1)
		}
		cfg.Remote = co
	}
	svc, err := batch.NewServerWith(cfg, st)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobrad: recover job store:", err)
		os.Exit(1)
	}
	handler := http.Handler(svc)
	if co != nil {
		co.RegisterMetrics(svc.Registry())
		root := http.NewServeMux()
		root.Handle("/v1/leases/", co)
		root.Handle("/v1/fleet", co)
		root.Handle("/v1/fleet/", co)
		root.Handle("/", svc)
		handler = root
	}
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.ListenAndServe() }()
	if *dataDir != "" {
		logger.Info("job store open", "dir", *dataDir, "retain", *retain, "ttl", *retainTTL)
	}
	logger.Info("listening",
		"addr", *addr, "campaign_workers", *campaigns, "cell_workers", *cellWorkers,
		"queue", *queue, "graph_cache", *cacheSize)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		// Close the service before draining HTTP: Shutdown waits for
		// in-flight handlers, and a client following a running job's
		// results only unblocks when the service aborts its jobs and
		// streams — the other order would burn the whole Shutdown timeout
		// whenever a follower is attached. Submissions racing this get a
		// 503.
		// BeginShutdown first: cells withdrawn by svc.Close keep their
		// journaled leases, so healthy workers reattach after a restart.
		if co != nil {
			co.BeginShutdown()
		}
		svc.Close()
		if co != nil {
			co.Close()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			if co != nil {
				co.BeginShutdown()
			}
			svc.Close()
			if co != nil {
				co.Close()
			}
			fmt.Fprintln(os.Stderr, "cobrad:", err)
			os.Exit(1)
		}
	}
}

// runWorker runs the fleet worker role: no listener, just the pull
// loop. The first SIGTERM/SIGINT drains (finish and complete the
// current cell, stop acquiring, exit 0); a second hard-stops — the
// abandoned lease expires on the coordinator and the cell's remaining
// trials are re-leased, byte-identically, elsewhere.
func runWorker(logger *slog.Logger, coordinator, id string, cacheSize int) {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w, err := fleet.NewWorker(fleet.WorkerConfig{
		Coordinator: coordinator,
		ID:          id,
		CacheSize:   cacheSize,
		Logger:      logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cobrad:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		logger.Info("draining: finishing current cell", "worker", id)
		w.Drain()
		<-sigCh
		logger.Warn("hard stop: abandoning current cell", "worker", id)
		cancel()
	}()
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "cobrad:", err)
		os.Exit(1)
	}
	logger.Info("worker exited", "worker", id, "cells_completed", w.CellsCompleted())
}

// newLogger builds the process logger for -log-format: line-oriented
// text (the default) or JSON, both to stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}
