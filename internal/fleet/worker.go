package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// WorkerConfig configures a fleet worker. It sets no idle poll interval:
// the coordinator holds an acquire until a cell opens (see Run).
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// ID names this worker in leases, logs, and metric labels.
	ID string
	// Heartbeat is the renew/upload interval; 0 derives TTL/4 from the
	// registered TTL. It must comfortably undercut the TTL: a worker that
	// renews slower than the coordinator's TTL loses its leases (the
	// lease-expiry-retry conformance case — safe, but all wasted work).
	Heartbeat time.Duration
	// CacheSize is the worker's private graph cache capacity (default 8).
	CacheSize int
	// Client is the HTTP client to reach the coordinator with; nil uses
	// a dedicated client with sane timeouts.
	Client *http.Client
	// Logger receives worker lifecycle records. nil uses slog.Default().
	Logger *slog.Logger
}

// Worker is a fleet compute loop: register, then acquire → compute →
// stream → complete, one cell at a time, until stopped. The compute
// path is the ordinary batch.Campaign machinery — a worker produces
// exactly the bytes a local run would, which is what makes the fleet
// transparent to results.
type Worker struct {
	cfg    WorkerConfig
	hc     *http.Client
	cache  *batch.Cache
	logger *slog.Logger
	// drained is cancelled by Drain: it ends the loop's acquires and the
	// waits between them, never a leased cell.
	drained context.Context
	drain   context.CancelFunc
	// cells counts cells this worker completed (test/ops visibility).
	cells atomic.Int64
}

// NewWorker validates cfg and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	if !validWorker(cfg.ID) {
		return nil, fmt.Errorf("fleet: invalid worker id %q", cfg.ID)
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	size := cfg.CacheSize
	if size <= 0 {
		size = 8
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	drained, drain := context.WithCancel(context.Background())
	return &Worker{cfg: cfg, hc: hc, cache: batch.NewCache(size), logger: logger, drained: drained, drain: drain}, nil
}

// Drain asks the loop to stop acquiring new cells: a held acquire is
// cancelled at once, and the current cell (if any) is finished and
// completed first. This is cobrad's first-SIGTERM behavior — a drained
// worker exits without abandoning work.
func (w *Worker) Drain() { w.drain() }

// CellsCompleted reports how many cells this worker has completed.
func (w *Worker) CellsCompleted() int64 { return w.cells.Load() }

// Run registers and pulls cells until ctx is cancelled or Drain is
// called. An acquire that finds no open cell is held by the coordinator
// until one opens or its bound passes; after the coordinator's 204 the
// worker acquires again at once, and after a failed acquire it backs off
// a fixed acquireBackoff. Cancelling ctx is a hard stop: the in-flight
// cell is abandoned mid-compute and its lease left to expire — the crash
// path the re-lease machinery exists for. Run returns nil on drain or
// cancellation; an error only when registration never succeeded.
func (w *Worker) Run(ctx context.Context) error {
	ttl, err := w.register(ctx)
	if err != nil {
		return err
	}
	hb := w.cfg.Heartbeat
	if hb <= 0 {
		hb = ttl / 4
	}
	if hb < 10*time.Millisecond {
		hb = 10 * time.Millisecond
	}
	w.logger.Info("fleet worker running", "worker", w.cfg.ID, "coordinator", w.cfg.Coordinator, "heartbeat", hb)
	// idle carries the acquires and the waits between them: a hard stop
	// or a Drain cancels it, while a leased cell runs under ctx alone.
	idle, stopIdle := context.WithCancel(ctx)
	defer stopIdle()
	defer context.AfterFunc(w.drained, stopIdle)()
	for {
		if ctx.Err() != nil || w.drained.Err() != nil {
			return nil
		}
		grant, ok, err := w.acquire(idle)
		if err != nil {
			if idle.Err() != nil {
				return nil
			}
			w.logger.Warn("fleet acquire failed", "worker", w.cfg.ID, "err", err)
			if !sleepCtx(idle, acquireBackoff) {
				return nil
			}
			continue
		}
		if ok {
			w.runLease(ctx, grant, hb)
		}
	}
}

// acquireBackoff is the wait after a failed acquire (a transport error
// or an unexpected status), so a worker whose coordinator went away keeps
// retrying without hammering it.
const acquireBackoff = 250 * time.Millisecond

// register announces the worker and fetches the lease TTL, retrying
// until the coordinator answers or ctx ends.
func (w *Worker) register(ctx context.Context) (time.Duration, error) {
	for attempt := 0; ; attempt++ {
		var resp registerResponse
		status, err := w.post(ctx, "/v1/fleet/register", acquireRequest{Worker: w.cfg.ID}, &resp)
		if err == nil && status == http.StatusOK {
			return time.Duration(resp.TTLMilli) * time.Millisecond, nil
		}
		if err == nil {
			return 0, fmt.Errorf("fleet: register: coordinator answered %d", status)
		}
		if attempt >= 50 {
			return 0, fmt.Errorf("fleet: register: %w", err)
		}
		if !sleepCtx(ctx, 200*time.Millisecond) {
			return 0, ctx.Err()
		}
	}
}

func (w *Worker) acquire(ctx context.Context) (leaseGrant, bool, error) {
	var grant leaseGrant
	status, err := w.post(ctx, "/v1/leases/acquire", acquireRequest{Worker: w.cfg.ID}, &grant)
	if err != nil {
		return grant, false, err
	}
	switch status {
	case http.StatusOK:
		return grant, true, nil
	case http.StatusNoContent:
		return grant, false, nil
	default:
		return grant, false, fmt.Errorf("fleet: acquire: coordinator answered %d", status)
	}
}

// runLease computes one leased cell tail and streams it back. Results
// accumulate in an in-order buffer; every heartbeat uploads the unsent
// suffix, and the coordinator's next-index replies move the sent marker
// (backwards after a 409, so lost responses just replay idempotently).
func (w *Worker) runLease(ctx context.Context, grant leaseGrant, hb time.Duration) {
	campaign, err := batch.Compile(grant.Spec, w.cache)
	if err != nil {
		// The cell itself is bad: report it so the sweep fails the way a
		// local compile error fails it, instead of cycling leases.
		w.finish(ctx, grant, nil, 0, err)
		return
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var buf []batch.TrialResult // cell results [From, …) in trial order
	computed := make(chan error, 1)
	go func() {
		// The returned aggregate is discarded: the coordinator folds its
		// own from the delivered stream, keeping aggregates bit-identical
		// without shipping estimator state over the wire.
		_, err := campaign.RunFrom(cctx, grant.From, nil, func(r batch.TrialResult) {
			mu.Lock()
			buf = append(buf, r)
			mu.Unlock()
		})
		computed <- err
	}()

	sent := 0 // index into buf of the first unsent result
	// clamp bounds a coordinator-reported position to [0, len(buf)] —
	// len(buf) must be read under mu while the compute goroutine runs.
	clamp := func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		if n < 0 {
			return 0
		}
		if n > len(buf) {
			return len(buf)
		}
		return n
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case err := <-computed:
			if cctx.Err() != nil {
				return // hard stop: abandon, let the lease expire
			}
			w.finish(ctx, grant, buf, sent, err)
			return
		case <-cctx.Done():
			return
		case <-ticker.C:
			mu.Lock()
			pending := buf[sent:len(buf):len(buf)]
			mu.Unlock()
			if len(pending) > maxBatch {
				pending = pending[:maxBatch]
			}
			var resp batchResponse
			status, err := w.post(ctx, "/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: w.cfg.ID, SpecHash: grant.SpecHash, Results: pending}, &resp)
			if err != nil {
				continue // transient: keep computing, retry next beat
			}
			switch status {
			case http.StatusOK:
				if resp.Next >= 0 {
					sent = clamp(resp.Next - grant.From)
				}
			case http.StatusConflict:
				sent = clamp(resp.Next - grant.From)
			case http.StatusGone:
				// Lease expired or superseded: abandon. Another lease —
				// maybe our own next one — recomputes the unaccepted tail
				// to identical bytes.
				w.logger.Warn("fleet lease lost", "worker", w.cfg.ID, "lease", grant.Lease, "job", grant.Job, "cell", grant.Cell)
				cancel()
				<-computed
				return
			}
		}
	}
}

// maxBatch bounds results per upload, keeping request bodies well under
// the coordinator's byte limit.
const maxBatch = 4096

// finish drives complete until the coordinator settles the cell:
// resending from wherever 409 points, waiting out -1 ("cell not
// re-offered yet" after a coordinator restart), and giving up on 410 or
// when retries run out (the lease then just expires).
func (w *Worker) finish(ctx context.Context, grant leaseGrant, buf []batch.TrialResult, sent int, computeErr error) {
	req := batchRequest{Lease: grant.Lease, Worker: w.cfg.ID, SpecHash: grant.SpecHash}
	if computeErr != nil {
		req.Error = computeErr.Error()
	}
	for attempt := 0; attempt < 200; attempt++ {
		if ctx.Err() != nil {
			return
		}
		if computeErr == nil {
			end := len(buf)
			if end-sent > maxBatch {
				end = sent + maxBatch
			}
			req.Results = buf[sent:end:end]
		}
		var resp batchResponse
		status, err := w.post(ctx, "/v1/leases/complete", req, &resp)
		if err != nil {
			if !sleepCtx(ctx, 100*time.Millisecond) {
				return
			}
			continue
		}
		switch status {
		case http.StatusOK:
			if resp.Done {
				w.cells.Add(1)
				w.logger.Info("fleet cell completed", "worker", w.cfg.ID, "lease", grant.Lease, "job", grant.Job, "cell", grant.Cell)
				return
			}
			// Next == -1: lease live, cell not re-offered yet. Hold and retry.
			if !sleepCtx(ctx, 100*time.Millisecond) {
				return
			}
		case http.StatusConflict:
			if resp.Next >= 0 {
				sent = resp.Next - grant.From
				if sent < 0 {
					sent = 0
				}
				if sent > len(buf) {
					sent = len(buf)
				}
			}
		case http.StatusGone:
			w.logger.Warn("fleet lease lost at complete", "worker", w.cfg.ID, "lease", grant.Lease, "job", grant.Job, "cell", grant.Cell)
			return
		default:
			if !sleepCtx(ctx, 100*time.Millisecond) {
				return
			}
		}
	}
	w.logger.Error("fleet complete retries exhausted", "worker", w.cfg.ID, "lease", grant.Lease, "job", grant.Job, "cell", grant.Cell)
}

// post sends one JSON request and decodes the JSON answer (when into is
// non-nil and the body is JSON), returning the HTTP status.
func (w *Worker) post(ctx context.Context, path string, body, into any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return 0, err
	}
	if into != nil && len(raw) > 0 {
		// Error statuses carry {"error":...}; tolerate either shape.
		_ = json.Unmarshal(raw, into)
	}
	return resp.StatusCode, nil
}

// sleepCtx sleeps d or until ctx ends, reporting whether ctx survived.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
