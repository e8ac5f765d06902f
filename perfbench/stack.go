package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/fleet"
	"github.com/repro/cobra/internal/store"
)

// role is how the in-process cobrad is wired.
type role string

const (
	roleMemory  role = "memory"  // standalone, no store
	roleDurable role = "durable" // standalone over a journal store
	roleFleet   role = "fleet"   // durable coordinator plus two workers
)

// cobrad's flag defaults, which every stack uses.
const (
	fleetWorkers = 2
	leaseTTL     = 10 * time.Second
)

func serverConfig() batch.ServerConfig {
	return batch.ServerConfig{
		CampaignWorkers: 2,
		CellWorkers:     2,
		QueueDepth:      64,
		CacheSize:       32,
		MaxTrials:       1_000_000,
		RetainResults:   256,
		// cobrad logs text records to stderr; the benchmark formats
		// them the same way and drops them.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
}

// stack is one in-process cobrad served over httptest, wired like
// cmd/cobrad: batch.NewServerWith over store.Open, and for the fleet role
// fleet.NewCoordinator as the server's cell runner with fleet.NewWorker
// pull loops on the same coordinator URL.
type stack struct {
	role  role
	svc   *batch.Server
	co    *fleet.Coordinator
	ts    *httptest.Server
	store *timedStore
	rpc   []*rpcTimer
	stopW context.CancelFunc
	wg    sync.WaitGroup
}

// newStack builds and starts a stack; dir holds the store for the
// durable and fleet roles and must not exist yet.
func newStack(r role, dir string) (*stack, error) {
	s := &stack{role: r}
	cfg := serverConfig()
	var st batch.Store
	var ds *store.Store
	if r != roleMemory {
		var err error
		if ds, err = store.Open(dir); err != nil {
			return nil, err
		}
		s.store = &timedStore{Store: ds}
		st = s.store
	}
	if r == roleFleet {
		co, err := fleet.NewCoordinator(fleet.CoordinatorConfig{TTL: leaseTTL, Store: ds, Logger: cfg.Logger})
		if err != nil {
			return nil, err
		}
		s.co = co
		cfg.Remote = co
	}
	svc, err := batch.NewServerWith(cfg, st)
	if err != nil {
		if s.co != nil {
			s.co.Close()
		}
		return nil, err
	}
	s.svc = svc
	handler := http.Handler(svc)
	if s.co != nil {
		s.co.RegisterMetrics(svc.Registry())
		root := http.NewServeMux()
		root.Handle("/v1/leases/", s.co)
		root.Handle("/v1/fleet", s.co)
		root.Handle("/v1/fleet/", s.co)
		root.Handle("/", svc)
		handler = root
	}
	s.ts = httptest.NewServer(handler)
	if r == roleFleet {
		ctx, cancel := context.WithCancel(context.Background())
		s.stopW = cancel
		for i := 0; i < fleetWorkers; i++ {
			rt := &rpcTimer{base: http.DefaultTransport.(*http.Transport).Clone()}
			w, err := fleet.NewWorker(fleet.WorkerConfig{
				Coordinator: s.ts.URL,
				ID:          fmt.Sprintf("w%d", i+1),
				CacheSize:   32,
				Client:      &http.Client{Transport: rt, Timeout: 30 * time.Second},
				Logger:      cfg.Logger,
			})
			if err != nil {
				s.Close()
				return nil, err
			}
			s.rpc = append(s.rpc, rt)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				// Run fails only when registration never succeeds; the
				// jobs that then never finish fail the run instead.
				_ = w.Run(ctx)
			}()
		}
	}
	return s, nil
}

func (s *stack) URL() string { return s.ts.URL }

// Close stops the workers, then the server and coordinator in cobrad's
// shutdown order, then the listener, and waits for all of them.
func (s *stack) Close() {
	if s.stopW != nil {
		s.stopW()
		s.wg.Wait()
		for _, rt := range s.rpc {
			rt.base.CloseIdleConnections()
		}
	}
	if s.co != nil {
		s.co.BeginShutdown()
	}
	s.svc.Close()
	if s.co != nil {
		s.co.Close()
	}
	s.ts.CloseClientConnections()
	s.ts.Close()
}

// computeGoroutines is the most trial goroutines the stack runs at once
// with inflight jobs of the given shape: fleet trials run only on the
// workers, one cell each; local trials run in the server's campaign
// workers, cells times trial workers per job.
func (s *stack) computeGoroutines(inflight int, job Job) int {
	if s.role == roleFleet {
		return fleetWorkers * job.Cells()[0].Workers
	}
	if inflight > serverConfig().CampaignWorkers {
		inflight = serverConfig().CampaignWorkers
	}
	return inflight * job.Parallelism()
}

// timedStore is the job store the server runs on, timing journal
// creation (the header fsync every accepted job pays before its 202).
type timedStore struct {
	*store.Store
	mu      sync.Mutex
	creates []float64 // ms
}

// SetMetrics forwards explicitly: the server type-asserts its store for
// it to attach the journal instruments, so a wrapper that dropped it
// would silently blank the store's /metrics families.
func (t *timedStore) SetMetrics(m store.Metrics) { t.Store.SetMetrics(m) }

func (t *timedStore) Create(h store.Header) (*store.Journal, error) {
	t0 := time.Now()
	j, err := t.Store.Create(h)
	ms := msSince(t0)
	t.mu.Lock()
	t.creates = append(t.creates, ms)
	t.mu.Unlock()
	return j, err
}

// createTimes returns the creates recorded since mark, and a new mark.
func (t *timedStore) createTimes(mark int) ([]float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.creates[mark:]...), len(t.creates)
}

// readJob times re-reading a finished job's results straight from its
// journal, the path the server serves evicted jobs from.
func (t *timedStore) readJob(id string) (float64, int, error) {
	t0 := time.Now()
	it, err := t.Results(id)
	if err != nil {
		return 0, 0, err
	}
	defer it.Close()
	n := 0
	for it.Next() {
		n++
	}
	return msSince(t0), n, it.Err()
}

// rpcTimer is one fleet worker's HTTP transport, timing every lease RPC
// by route and tracking the worker's idle gaps between cells.
type rpcTimer struct {
	base *http.Transport

	mu           sync.Mutex
	ms           map[string][]float64 // route -> round-trip times
	acquires     int
	emptyAcq     int       // acquires answered 204: nothing to lease
	lastComplete time.Time // zero while a lease is held
	idle         []float64 // complete -> next grant, ms
	completes    int
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	now := time.Now()
	route := path.Base(req.URL.Path)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ms == nil {
		t.ms = make(map[string][]float64)
	}
	t.ms[route] = append(t.ms[route], float64(now.Sub(t0))/1e6)
	if err != nil {
		return resp, err
	}
	switch route {
	case "acquire":
		t.acquires++
		switch resp.StatusCode {
		case http.StatusNoContent:
			t.emptyAcq++
		case http.StatusOK:
			if !t.lastComplete.IsZero() {
				t.idle = append(t.idle, float64(now.Sub(t.lastComplete))/1e6)
			}
			t.lastComplete = time.Time{}
		}
	case "complete":
		if resp.StatusCode == http.StatusOK {
			t.completes++
			t.lastComplete = now
		}
	}
	return resp, nil
}

// rpcStats is a snapshot of one worker's lease-RPC counters.
type rpcStats struct {
	ms                            map[string][]float64
	acquires, emptyAcq, completes int
	idle                          []float64
}

// rpcSnapshot copies every worker's counters.
func (s *stack) rpcSnapshot() []rpcStats {
	var out []rpcStats
	for _, t := range s.rpc {
		t.mu.Lock()
		snap := rpcStats{ms: make(map[string][]float64), acquires: t.acquires, emptyAcq: t.emptyAcq, completes: t.completes}
		for route, v := range t.ms {
			snap.ms[route] = append([]float64(nil), v...)
		}
		snap.idle = append([]float64(nil), t.idle...)
		t.mu.Unlock()
		out = append(out, snap)
	}
	return out
}

// rpcDelta is the fleet's lease-RPC activity between two snapshots,
// summed over workers.
func rpcDelta(after, before []rpcStats) rpcStats {
	out := rpcStats{ms: make(map[string][]float64)}
	for i, a := range after {
		b := rpcStats{}
		if i < len(before) {
			b = before[i]
		}
		for route, v := range a.ms {
			out.ms[route] = append(out.ms[route], v[len(b.ms[route]):]...)
		}
		out.acquires += a.acquires - b.acquires
		out.emptyAcq += a.emptyAcq - b.emptyAcq
		out.completes += a.completes - b.completes
		out.idle = append(out.idle, a.idle[len(b.idle):]...)
	}
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// removeAll deletes a scratch directory the benchmark created.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cleanup:", err)
	}
}

// markJobStart drops the workers' pending idle gaps, so the gap from a
// job's last complete to the next job's first grant — client time
// between jobs — is not counted as fleet idle time.
func (s *stack) markJobStart() {
	for _, t := range s.rpc {
		t.mu.Lock()
		t.lastComplete = time.Time{}
		t.mu.Unlock()
	}
}
