package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/store"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testSweep() batch.SweepSpec {
	return batch.SweepSpec{
		Graphs:      []string{"rreg:192:3", "ws:192:6:0.1"},
		Processes:   []string{"cobra"},
		Branches:    []int{2, 3},
		Trials:      12,
		Seed:        7,
		Workers:     1,
		CellWorkers: 4,
	}
}

// fleetEnv is a coordinator-mode cobrad composed exactly like
// cmd/cobrad's coordinator role: lease endpoints and /v1/fleet routed to
// the coordinator, everything else to the batch server, one registry.
type fleetEnv struct {
	ts  *httptest.Server
	svc *batch.Server
	co  *Coordinator
}

func newFleetEnv(t *testing.T, cfg CoordinatorConfig) *fleetEnv {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc := batch.NewServer(batch.ServerConfig{Remote: co, CellWorkers: 4, Logger: quietLogger()})
	co.RegisterMetrics(svc.Registry())
	root := http.NewServeMux()
	root.Handle("/v1/leases/", co)
	root.Handle("/v1/fleet", co)
	root.Handle("/v1/fleet/", co)
	root.Handle("/", svc)
	ts := httptest.NewServer(root)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
		co.Close()
	})
	return &fleetEnv{ts: ts, svc: svc, co: co}
}

// goldenCampaign is the CI golden campaign (mean 26.703125).
func goldenCampaign() batch.Spec {
	return batch.Spec{Graph: "rreg:1024:3", Process: "cobra", Branch: 2, Trials: 64, Seed: 1}
}

// jobPath is a job's resource path: campaign ids start with c, sweep
// ids with s.
func jobPath(id string) string {
	if strings.HasPrefix(id, "c") {
		return "/v1/campaigns/" + id
	}
	return "/v1/sweeps/" + id
}

// postJob submits a sweep (batch.SweepSpec) or a campaign (batch.Spec)
// and returns its id.
func postJob(t *testing.T, url string, spec any) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	route := "/v1/sweeps"
	if _, ok := spec.(batch.Spec); ok {
		route = "/v1/campaigns"
	}
	resp, err := http.Post(url+route, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["id"]
}

type jobState struct {
	State     string `json:"state"`
	Completed int    `json:"completed"`
	Error     string `json:"error"`
}

func getJobState(t *testing.T, url, id string) jobState {
	t.Helper()
	resp, err := http.Get(url + jobPath(id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobState
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitJobDone(t *testing.T, url, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getJobState(t, url, id)
		if st.State == "done" {
			return
		}
		if st.State == "failed" || st.State == "expired" {
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (completed %d)", id, st.State, st.Completed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// resultBytes fetches the raw NDJSON result stream — the bytes under
// the byte-identity contract.
func resultBytes(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + jobPath(id) + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if tr := resp.Trailer.Get(batch.StreamTrailer); tr != batch.StreamComplete {
		t.Fatalf("stream trailer %q, want %q", tr, batch.StreamComplete)
	}
	return raw
}

// standaloneGolden runs the job on an ordinary single-process server
// and returns its result bytes — the reference every fleet topology
// must reproduce exactly.
func standaloneGolden(t *testing.T, spec any) []byte {
	t.Helper()
	svc := batch.NewServer(batch.ServerConfig{CellWorkers: 4, Logger: quietLogger()})
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		svc.Close()
	}()
	id := postJob(t, ts.URL, spec)
	awaitJobDone(t, ts.URL, id, 60*time.Second)
	return resultBytes(t, ts.URL, id)
}

func startWorker(t *testing.T, ctx context.Context, env *fleetEnv, id string, hb time.Duration) (*Worker, chan struct{}) {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: env.ts.URL,
		ID:          id,
		Heartbeat:   hb,
		Logger:      quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: %v", id, err)
		}
	}()
	return w, done
}

func metricValue(t *testing.T, url, family string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, family) {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name sharing the prefix
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err == nil {
			sum += v
		}
	}
	return sum
}

// TestFleetConformance: the merged fleet stream is byte-identical to
// the standalone run for 1 and for 3 workers, and the coordinator
// computed none of it locally — for a sweep, and for the golden
// campaign, which runs as a one-cell sweep and is leased like any cell.
func TestFleetConformance(t *testing.T) {
	sweep := testSweep()
	campaign := goldenCampaign()
	for _, in := range []struct {
		prefix string // subtest name prefix
		spec   any
		trials int
	}{
		{"", sweep, len(sweep.Graphs) * len(sweep.Branches) * sweep.Trials},
		{"campaign/", campaign, campaign.Trials},
	} {
		golden := standaloneGolden(t, in.spec)
		if len(golden) == 0 {
			t.Fatal("empty golden")
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%sworkers=%d", in.prefix, workers), func(t *testing.T) {
				env := newFleetEnv(t, CoordinatorConfig{TTL: 5 * time.Second})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for i := 0; i < workers; i++ {
					startWorker(t, ctx, env, fmt.Sprintf("w%d", i+1), 15*time.Millisecond)
				}
				id := postJob(t, env.ts.URL, in.spec)
				awaitJobDone(t, env.ts.URL, id, 60*time.Second)
				got := resultBytes(t, env.ts.URL, id)
				if !bytes.Equal(got, golden) {
					t.Fatalf("fleet stream diverged from standalone: %d vs %d bytes", len(got), len(golden))
				}
				if n := env.svc.TrialsExecuted(); n != 0 {
					t.Fatalf("coordinator computed %d trials locally", n)
				}
				if v := metricValue(t, env.ts.URL, "cobrad_fleet_trials_remote_total"); int(v) != in.trials {
					t.Fatalf("remote trial roll-up %v, want %d", v, in.trials)
				}
			})
		}
	}
}

// TestFleetWorkerKilledMidCell: a worker hard-stopped mid-cell loses
// its lease to TTL expiry, the cell's tail is re-leased to a second
// worker, and the merged bytes still match the standalone golden — for
// a sweep, and for a campaign (the sweep's first cell, submitted alone).
func TestFleetWorkerKilledMidCell(t *testing.T) {
	sweep := testSweep()
	sweep.Graphs = []string{"grid:32:32"}
	sweep.Branches = []int{2, 3}
	sweep.Trials = 150
	for _, in := range []struct {
		name string
		spec any
	}{
		{"sweep", sweep},
		{"campaign", sweep.Cells()[0]},
	} {
		t.Run(in.name, func(t *testing.T) {
			golden := standaloneGolden(t, in.spec)

			env := newFleetEnv(t, CoordinatorConfig{TTL: 250 * time.Millisecond})
			ctxA, cancelA := context.WithCancel(context.Background())
			defer cancelA()
			_, doneA := startWorker(t, ctxA, env, "victim", 20*time.Millisecond)

			id := postJob(t, env.ts.URL, in.spec)
			deadline := time.Now().Add(30 * time.Second)
			for getJobState(t, env.ts.URL, id).Completed < 10 {
				if time.Now().After(deadline) {
					t.Fatal("victim made no progress")
				}
				time.Sleep(5 * time.Millisecond)
			}
			cancelA() // SIGKILL equivalent: abandon mid-cell, no complete, no drain
			<-doneA

			ctxB, cancelB := context.WithCancel(context.Background())
			defer cancelB()
			startWorker(t, ctxB, env, "successor", 20*time.Millisecond)

			awaitJobDone(t, env.ts.URL, id, 60*time.Second)
			got := resultBytes(t, env.ts.URL, id)
			if !bytes.Equal(got, golden) {
				t.Fatalf("post-kill stream diverged from standalone: %d vs %d bytes", len(got), len(golden))
			}
			if n := env.svc.TrialsExecuted(); n != 0 {
				t.Fatalf("coordinator computed %d trials locally", n)
			}
			if v := metricValue(t, env.ts.URL, "cobrad_fleet_leases_expired_total"); v < 1 {
				t.Fatalf("expected at least one expired lease, metric reads %v", v)
			}
		})
	}
}

// TestFleetLeaseExpiryRetry: a slow worker delivers a partial prefix
// and goes silent; its lease expires and the replacement lease starts
// at exactly the accepted prefix boundary — the migrated cell recomputes
// only the tail, and the bytes still match.
func TestFleetLeaseExpiryRetry(t *testing.T) {
	spec := testSweep()
	spec.Graphs = []string{"rreg:256:3"}
	spec.Branches = []int{2}
	spec.Trials = 30
	spec.CellWorkers = 1
	golden := standaloneGolden(t, spec)

	env := newFleetEnv(t, CoordinatorConfig{TTL: 200 * time.Millisecond})
	id := postJob(t, env.ts.URL, spec)

	// Manually play a worker that computes the cell, uploads 10 trials,
	// then vanishes without completing.
	var grant leaseGrant
	acquireDeadline := time.Now().Add(10 * time.Second)
	for {
		status, raw := postJSON(t, env.ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "slowpoke"})
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &grant); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(acquireDeadline) {
			t.Fatal("cell never offered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if grant.From != 0 {
		t.Fatalf("first lease from %d, want 0", grant.From)
	}
	campaign, err := batch.Compile(grant.Spec, batch.NewCache(2))
	if err != nil {
		t.Fatal(err)
	}
	var results []batch.TrialResult
	if _, err := campaign.RunFrom(context.Background(), 0, nil, func(r batch.TrialResult) {
		results = append(results, r)
	}); err != nil {
		t.Fatal(err)
	}
	status, raw := postJSON(t, env.ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "slowpoke", Results: results[:10]})
	if status != http.StatusOK {
		t.Fatalf("renew: status %d: %s", status, raw)
	}
	var resp batchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Next != 10 {
		t.Fatalf("coordinator accepted to %d, want 10", resp.Next)
	}
	// Vanish. The lease expires; a real worker picks up the tail.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, env, "steady", 20*time.Millisecond)

	awaitJobDone(t, env.ts.URL, id, 60*time.Second)
	if !bytes.Equal(resultBytes(t, env.ts.URL, id), golden) {
		t.Fatal("expiry-retry stream diverged from standalone")
	}
	if v := metricValue(t, env.ts.URL, "cobrad_fleet_leases_expired_total"); v < 1 {
		t.Fatalf("expected an expired lease, metric reads %v", v)
	}
	// The zombie's late heartbeat is turned away with the expired state.
	status, _ = postJSON(t, env.ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "slowpoke"})
	if status != http.StatusGone {
		t.Fatalf("zombie renew: status %d, want 410", status)
	}
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// openCellDirect drives RunCell on a bare coordinator (no batch server)
// and returns the delivered results plus the cell's settled error.
func openCellDirect(t *testing.T, co *Coordinator, ctx context.Context, job string, cell, trials int) (func() []batch.TrialResult, chan error) {
	t.Helper()
	return openCellSpec(t, co, ctx, job, cell, batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: trials, Seed: 1})
}

// openCellSpec is openCellDirect with a caller-chosen spec.
func openCellSpec(t *testing.T, co *Coordinator, ctx context.Context, job string, cell int, spec batch.Spec) (func() []batch.TrialResult, chan error) {
	t.Helper()
	var mu sync.Mutex
	var delivered []batch.TrialResult
	errCh := make(chan error, 1)
	go func() {
		errCh <- co.RunCell(ctx, job, cell, spec, 0, func(r batch.TrialResult) {
			mu.Lock()
			delivered = append(delivered, r)
			mu.Unlock()
		})
	}()
	snapshot := func() []batch.TrialResult {
		mu.Lock()
		defer mu.Unlock()
		return append([]batch.TrialResult(nil), delivered...)
	}
	return snapshot, errCh
}

func coordServer(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	co, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co)
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return co, ts
}

func res(trial int) batch.TrialResult { return batch.TrialResult{Trial: trial, Rounds: 100 + trial} }

// TestLeaseBatchIdempotency: duplicates below the accepted prefix are
// skipped, gaps are rejected with the resend point, completion needs
// the full cell.
func TestLeaseBatchIdempotency(t *testing.T) {
	co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snapshot, errCh := openCellDirect(t, co, ctx, "s000001", 0, 4)

	var grant leaseGrant
	for {
		status, raw := postJSON(t, ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "w1"})
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &grant); err != nil {
				t.Fatal(err)
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	renew := func(results ...batch.TrialResult) (int, batchResponse) {
		status, raw := postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", Results: results})
		var resp batchResponse
		json.Unmarshal(raw, &resp)
		return status, resp
	}

	if status, resp := renew(res(0)); status != 200 || resp.Next != 1 {
		t.Fatalf("first batch: %d next=%d", status, resp.Next)
	}
	// Resending an overlapping batch is idempotent.
	if status, resp := renew(res(0), res(1)); status != 200 || resp.Next != 2 {
		t.Fatalf("overlap batch: %d next=%d", status, resp.Next)
	}
	// A gap is rejected and points at the resend position.
	if status, resp := renew(res(3)); status != http.StatusConflict || resp.Next != 2 {
		t.Fatalf("gap batch: %d next=%d", status, resp.Next)
	}
	// Completing short of the full cell is rejected the same way.
	status, raw := postJSON(t, ts.URL+"/v1/leases/complete", batchRequest{Lease: grant.Lease, Worker: "w1"})
	var resp batchResponse
	json.Unmarshal(raw, &resp)
	if status != http.StatusConflict || resp.Next != 2 {
		t.Fatalf("short complete: %d next=%d", status, resp.Next)
	}
	status, raw = postJSON(t, ts.URL+"/v1/leases/complete", batchRequest{Lease: grant.Lease, Worker: "w1", Results: []batch.TrialResult{res(2), res(3)}})
	json.Unmarshal(raw, &resp)
	if status != 200 || !resp.Done {
		t.Fatalf("complete: %d done=%v", status, resp.Done)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	got := snapshot()
	if len(got) != 4 {
		t.Fatalf("delivered %d results", len(got))
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("delivery order broken at %d: trial %d", i, r.Trial)
		}
	}
}

// TestCoordinatorClockSkew is the adversarial heartbeat case: a worker
// whose own clock says it is renewing on time is still expired by the
// coordinator's clock — the only one that counts — and its in-flight
// results are rejected rather than interleaved with the successor's.
func TestCoordinatorClockSkew(t *testing.T) {
	// A TTL of a minute holds an empty acquire for the 1s maximum; the
	// injected clock decides expiry.
	co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute})
	base := time.Now()
	var offset time.Duration
	var clockMu sync.Mutex
	co.setClock(func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return base.Add(offset)
	})
	advance := func(d time.Duration) {
		clockMu.Lock()
		offset += d
		clockMu.Unlock()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snapshot, errCh := openCellDirect(t, co, ctx, "s000001", 0, 4)

	var grant leaseGrant
	for {
		status, raw := postJSON(t, ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "skewed"})
		if status == http.StatusOK {
			json.Unmarshal(raw, &grant)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// On-time renew (coordinator clock) is accepted.
	status, raw := postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "skewed", Results: []batch.TrialResult{res(0), res(1)}})
	if status != http.StatusOK {
		t.Fatalf("renew: %d %s", status, raw)
	}

	// The worker's clock runs slow: it waits what it thinks is one
	// heartbeat while the coordinator's clock races past the TTL. It
	// sends nothing in that window — a renew arriving before the expiry
	// scan would rightly revive the lease (the progress guarantee) — so
	// expiry is observed through the successor's acquire: held on the
	// leased-out table, it is woken with the re-opened cell by the expiry
	// scan that retires the skewed lease.
	reply := startAcquire(ts.URL, "healthy")
	awaitHeld(t, reply)
	advance(10 * co.ttl)
	start := time.Now()
	co.expire() // the ticker's scan, run now instead of up to a second later
	r := awaitReply(t, reply, start)
	if r.status != http.StatusOK {
		t.Fatalf("skewed worker's lease never expired (acquire status %d)", r.status)
	}
	grant2 := r.grant
	if grant2.Cell != grant.Cell || grant2.From != 2 {
		t.Fatalf("successor grant cell=%d from=%d, want cell=%d from=2", grant2.Cell, grant2.From, grant.Cell)
	}
	// The zombie's buffered upload cannot corrupt the successor's stream.
	status, _ = postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "skewed", Results: []batch.TrialResult{res(2), res(3)}})
	if status != http.StatusGone {
		t.Fatalf("zombie upload: status %d, want 410", status)
	}
	status, _ = postJSON(t, ts.URL+"/v1/leases/complete", batchRequest{Lease: grant2.Lease, Worker: "healthy", Results: []batch.TrialResult{res(2), res(3)}})
	if status != http.StatusOK {
		t.Fatalf("successor complete: %d", status)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got := snapshot(); len(got) != 4 {
		t.Fatalf("delivered %d results", len(got))
	}
}

// TestCoordinatorRestartKeepsLiveLease: a journaled lease survives a
// coordinator restart — the restarted lease table refuses to re-grant
// the cell, and the original holder reattaches and completes.
func TestCoordinatorRestartKeepsLiveLease(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co1, err := NewCoordinator(CoordinatorConfig{TTL: time.Hour, Store: st, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	_, errCh1 := openCellDirect(t, co1, ctx1, "s000001", 0, 4)
	ts1 := httptest.NewServer(co1)

	var grant leaseGrant
	for {
		status, raw := postJSON(t, ts1.URL+"/v1/leases/acquire", acquireRequest{Worker: "w1"})
		if status == http.StatusOK {
			json.Unmarshal(raw, &grant)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, raw := postJSON(t, ts1.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", Results: []batch.TrialResult{res(0)}})
	if status != http.StatusOK {
		t.Fatalf("renew: %d %s", status, raw)
	}

	// Orderly shutdown: cells withdrawn, leases preserved.
	co1.BeginShutdown()
	cancel1()
	<-errCh1
	ts1.Close()
	co1.Close()

	co2, err := NewCoordinator(CoordinatorConfig{TTL: time.Hour, Store: st, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(co2)
	t.Cleanup(func() {
		ts2.Close()
		co2.Close()
	})

	// Before the cell is re-offered, the holder's renew is a live hold.
	status, raw = postJSON(t, ts2.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1"})
	var resp batchResponse
	json.Unmarshal(raw, &resp)
	if status != http.StatusOK || resp.Next != -1 {
		t.Fatalf("restored renew: %d next=%d, want 200 next=-1", status, resp.Next)
	}

	// Re-offer the cell (the recovered server resumes at the committed
	// prefix — trial 1 here was never journal-committed, so from=0 and
	// the worker's idempotent replay fills it back in).
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	snapshot, errCh2 := openCellDirect(t, co2, ctx2, "s000001", 0, 4)

	// RunCell opens the cell on its own goroutine: wait until the cell is
	// open and the restored lease has reattached to it (next >= 0), so the
	// acquire below tests the reattached lease rather than an empty table.
	deadline := time.Now().Add(2 * time.Second)
	for !leaseReattached(t, ts2.URL, grant.Lease) {
		if time.Now().After(deadline) {
			t.Fatal("re-offered cell never reattached to the restored lease")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The restored lease holds the cell: nobody else can acquire it.
	deadline = time.Now().Add(2 * time.Second)
	for {
		status, _ = postJSON(t, ts2.URL+"/v1/leases/acquire", acquireRequest{Worker: "thief"})
		if status == http.StatusNoContent {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored lease did not hold the cell: acquire got %d", status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	status, raw = postJSON(t, ts2.URL+"/v1/leases/complete", batchRequest{Lease: grant.Lease, Worker: "w1", Results: []batch.TrialResult{res(0), res(1), res(2), res(3)}})
	json.Unmarshal(raw, &resp)
	if status != http.StatusOK || !resp.Done {
		t.Fatalf("reattached complete: %d done=%v", status, resp.Done)
	}
	if err := <-errCh2; err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got := snapshot(); len(got) != 4 {
		t.Fatalf("delivered %d results", len(got))
	}
}

// leaseReattached reports whether GET /v1/fleet shows exactly one open
// cell held by the given lease at a known resend point (next >= 0).
func leaseReattached(t *testing.T, url, leaseID string) bool {
	t.Helper()
	st := getFleet(t, url)
	if st.OpenCells != 1 {
		return false
	}
	for _, l := range st.Leases {
		if l.Lease == leaseID {
			return l.Next >= 0
		}
	}
	return false
}

// getFleet reads GET /v1/fleet.
func getFleet(t *testing.T, url string) fleetStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// acquireReply is one acquire's answer, as seen by its client.
type acquireReply struct {
	status int
	grant  leaseGrant
	err    error
}

// startAcquire sends one acquire for worker on its own goroutine and
// returns the channel its reply arrives on.
func startAcquire(url, worker string) <-chan acquireReply {
	ch := make(chan acquireReply, 1)
	go func() {
		payload, err := json.Marshal(acquireRequest{Worker: worker})
		if err != nil {
			ch <- acquireReply{err: err}
			return
		}
		resp, err := http.Post(url+"/v1/leases/acquire", "application/json", bytes.NewReader(payload))
		if err != nil {
			ch <- acquireReply{err: err}
			return
		}
		defer resp.Body.Close()
		r := acquireReply{status: resp.StatusCode}
		if r.status == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.grant)
		}
		ch <- r
	}()
	return ch
}

// awaitHeld checks that the coordinator is still holding the acquire
// 50ms after it was sent.
func awaitHeld(t *testing.T, reply <-chan acquireReply) {
	t.Helper()
	select {
	case r := <-reply:
		t.Fatalf("acquire answered %d (err %v) instead of being held", r.status, r.err)
	case <-time.After(50 * time.Millisecond):
	}
}

// awaitReply returns a held acquire's reply, which must arrive within
// 100ms of start — well inside the 1s hold bound.
func awaitReply(t *testing.T, reply <-chan acquireReply, start time.Time) acquireReply {
	t.Helper()
	select {
	case r := <-reply:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("held acquire answered %d after %v, want within 100ms", r.status, d)
		}
		return r
	case <-time.After(5 * time.Second):
	}
	t.Fatal("held acquire never answered")
	return acquireReply{}
}

// TestAcquireHeldUntilCellOpens: an acquire on an empty table is held
// rather than answered 204, and is granted as soon as RunCell opens a
// cell.
func TestAcquireHeldUntilCellOpens(t *testing.T) {
	co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute}) // 1s hold bound
	reply := startAcquire(ts.URL, "waiting")
	awaitHeld(t, reply)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	openCellDirect(t, co, ctx, "s000001", 0, 4)
	r := awaitReply(t, reply, start)
	if r.status != http.StatusOK || r.grant.Job != "s000001" || r.grant.From != 0 {
		t.Fatalf("held acquire: status %d job %q from %d, want 200 s000001 from 0", r.status, r.grant.Job, r.grant.From)
	}
}

// TestAcquireCancelledGetsNoLease: an acquire whose request has gone
// away is never granted — a lease nobody holds would keep its cell
// leased for a full TTL — and a live acquire then gets the cell from 0.
func TestAcquireCancelledGetsNoLease(t *testing.T) {
	co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	openCellDirect(t, co, ctx, "s000001", 0, 4)
	deadline := time.Now().Add(5 * time.Second)
	for getFleet(t, ts.URL).OpenCells != 1 {
		if time.Now().After(deadline) {
			t.Fatal("cell never opened")
		}
		time.Sleep(2 * time.Millisecond)
	}

	gone, stop := context.WithCancel(context.Background())
	stop()
	body, err := json.Marshal(acquireRequest{Worker: "gone"})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/leases/acquire", bytes.NewReader(body)).WithContext(gone)
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, req)
	if rec.Code != http.StatusNoContent {
		t.Fatalf("cancelled acquire: status %d %s, want 204", rec.Code, rec.Body)
	}
	if st := getFleet(t, ts.URL); len(st.Leases) != 0 {
		t.Fatalf("cancelled acquire left %d leases: %+v", len(st.Leases), st.Leases)
	}

	status, raw := postJSON(t, ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "live"})
	var grant leaseGrant
	if err := json.Unmarshal(raw, &grant); status != http.StatusOK || err != nil {
		t.Fatalf("live acquire: status %d %s", status, raw)
	}
	if grant.Job != "s000001" || grant.Cell != 0 || grant.From != 0 {
		t.Fatalf("live acquire got %s/%d from %d, want s000001/0 from 0", grant.Job, grant.Cell, grant.From)
	}
}

// TestAcquireReleasedAtShutdown: BeginShutdown and Close each answer a
// held acquire 204 at once, hold no later acquire, and leave no handler
// goroutine behind — so an HTTP server's shutdown drain never waits on
// an idle worker.
func TestAcquireReleasedAtShutdown(t *testing.T) {
	for _, in := range []struct {
		name string
		stop func(*Coordinator)
	}{
		{"BeginShutdown", (*Coordinator).BeginShutdown},
		{"Close", (*Coordinator).Close},
	} {
		t.Run(in.name, func(t *testing.T) {
			co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute}) // 1s hold bound
			// Earlier tests leave keep-alive client connections in the
			// shared transport pool; flush them so the baseline is this
			// test's own.
			http.DefaultClient.CloseIdleConnections()
			time.Sleep(20 * time.Millisecond)
			before := runtime.NumGoroutine()

			reply := startAcquire(ts.URL, "idle")
			awaitHeld(t, reply)
			start := time.Now()
			in.stop(co)
			if r := awaitReply(t, reply, start); r.status != http.StatusNoContent {
				t.Fatalf("held acquire at %s: status %d, want 204", in.name, r.status)
			}
			start = time.Now()
			if status, _ := postJSON(t, ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "late"}); status != http.StatusNoContent {
				t.Fatalf("acquire after %s: status %d, want 204", in.name, status)
			}
			if d := time.Since(start); d > 100*time.Millisecond {
				t.Fatalf("acquire after %s held for %v", in.name, d)
			}

			// Checked well inside the hold bound, which would otherwise end
			// a leaked hold by itself.
			deadline := time.Now().Add(500 * time.Millisecond)
			for {
				http.DefaultClient.CloseIdleConnections()
				n := runtime.NumGoroutine()
				if n <= before {
					return
				}
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("goroutines %d > %d after %s:\n%s", n, before, in.name, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestLeaseSpecHashMismatch: a grant carries the canonical spec hash;
// a batch echoing a different hash is turned away with 410 and the cell
// re-opens for a fresh grant, so results computed from the wrong spec
// can never enter the stream.
func TestLeaseSpecHashMismatch(t *testing.T) {
	co, ts := coordServer(t, CoordinatorConfig{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: 4, Seed: 1}
	snapshot, errCh := openCellSpec(t, co, ctx, "s000001", 0, spec)

	var grant leaseGrant
	for {
		status, raw := postJSON(t, ts.URL+"/v1/leases/acquire", acquireRequest{Worker: "w1"})
		if status == http.StatusOK {
			json.Unmarshal(raw, &grant)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if grant.SpecHash != specHash(spec) {
		t.Fatalf("grant spec hash %q, want %q", grant.SpecHash, specHash(spec))
	}
	// A correct echo is accepted.
	status, raw := postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", SpecHash: grant.SpecHash, Results: []batch.TrialResult{res(0)}})
	if status != http.StatusOK {
		t.Fatalf("renew with matching hash: %d %s", status, raw)
	}
	// w2's acquire is held while the cell is leased out.
	reply := startAcquire(ts.URL, "w2")
	awaitHeld(t, reply)
	// A mismatched echo is 410: the holder computed some other spec.
	start := time.Now()
	status, raw = postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", SpecHash: "deadbeef", Results: []batch.TrialResult{res(1)}})
	if status != http.StatusGone {
		t.Fatalf("renew with wrong hash: %d %s, want 410", status, raw)
	}
	// The lease is retired with the rejection, and the re-opened cell
	// wakes w2's acquire at the accepted prefix.
	r := awaitReply(t, reply, start)
	if r.status != http.StatusOK {
		t.Fatalf("cell not re-acquirable after hash rejection: %d", r.status)
	}
	grant2 := r.grant
	// Even a now-correct echo on the retired lease is refused.
	status, _ = postJSON(t, ts.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", SpecHash: grant.SpecHash})
	if status != http.StatusGone {
		t.Fatalf("retired lease renew: %d, want 410", status)
	}
	if grant2.From != 1 {
		t.Fatalf("successor grant from %d, want 1", grant2.From)
	}
	status, _ = postJSON(t, ts.URL+"/v1/leases/complete", batchRequest{Lease: grant2.Lease, Worker: "w2", SpecHash: grant2.SpecHash, Results: []batch.TrialResult{res(1), res(2), res(3)}})
	if status != http.StatusOK {
		t.Fatalf("successor complete: %d", status)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got := snapshot(); len(got) != 4 {
		t.Fatalf("delivered %d results", len(got))
	}
}

// TestLeaseSpecHashReattach: a restored lease only reattaches to a
// re-offered cell whose spec hashes the same. When the same (job, cell)
// key comes back carrying different work, the stale holder is rejected
// with 410 and the cell is granted fresh.
func TestLeaseSpecHashReattach(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co1, err := NewCoordinator(CoordinatorConfig{TTL: time.Hour, Store: st, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	specA := batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: 4, Seed: 1}
	ctx1, cancel1 := context.WithCancel(context.Background())
	_, errCh1 := openCellSpec(t, co1, ctx1, "s000001", 0, specA)
	ts1 := httptest.NewServer(co1)

	var grant leaseGrant
	for {
		status, raw := postJSON(t, ts1.URL+"/v1/leases/acquire", acquireRequest{Worker: "w1"})
		if status == http.StatusOK {
			json.Unmarshal(raw, &grant)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	co1.BeginShutdown()
	cancel1()
	<-errCh1
	ts1.Close()
	co1.Close()

	co2, err := NewCoordinator(CoordinatorConfig{TTL: time.Hour, Store: st, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(co2)
	t.Cleanup(func() {
		ts2.Close()
		co2.Close()
	})

	// The same cell key reappears carrying a different spec (a job-id
	// collision across store generations). The restored lease must not
	// inherit it.
	specB := specA
	specB.Seed = 999
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	snapshot, errCh2 := openCellSpec(t, co2, ctx2, "s000001", 0, specB)

	// The stale holder is told its lease is gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, _ := postJSON(t, ts2.URL+"/v1/leases/renew", batchRequest{Lease: grant.Lease, Worker: "w1", SpecHash: grant.SpecHash})
		if status == http.StatusGone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale holder still accepted: %d", status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The cell is granted fresh, with specB and its hash.
	var grant2 leaseGrant
	for {
		status, raw := postJSON(t, ts2.URL+"/v1/leases/acquire", acquireRequest{Worker: "w2"})
		if status == http.StatusOK {
			json.Unmarshal(raw, &grant2)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cell not re-grantable after reattach rejection: %d", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if grant2.SpecHash != specHash(specB) || grant2.SpecHash == grant.SpecHash {
		t.Fatalf("successor hash %q, want %q != %q", grant2.SpecHash, specHash(specB), grant.SpecHash)
	}
	status, _ := postJSON(t, ts2.URL+"/v1/leases/complete", batchRequest{Lease: grant2.Lease, Worker: "w2", SpecHash: grant2.SpecHash, Results: []batch.TrialResult{res(0), res(1), res(2), res(3)}})
	if status != http.StatusOK {
		t.Fatalf("successor complete: %d", status)
	}
	if err := <-errCh2; err != nil {
		t.Fatalf("RunCell: %v", err)
	}
	if got := snapshot(); len(got) != 4 {
		t.Fatalf("delivered %d results", len(got))
	}
}

// TestWorkerDrainFinishesCell: Drain lets the current cell complete and
// stops the loop — no abandoned lease, no expiry. A worker idling in a
// held acquire is released at once instead of after the hold bound.
func TestWorkerDrainFinishesCell(t *testing.T) {
	for _, busy := range []bool{true, false} {
		name := "idle"
		if busy {
			name = "mid-cell"
		}
		t.Run(name, func(t *testing.T) {
			spec := testSweep()
			spec.Graphs = []string{"rreg:192:3"}
			spec.Branches = []int{2}
			spec.Trials = 40
			spec.CellWorkers = 1
			env := newFleetEnv(t, CoordinatorConfig{TTL: 4 * time.Second}) // 1s hold bound
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w, done := startWorker(t, ctx, env, "drainer", 15*time.Millisecond)
			var id string
			deadline := time.Now().Add(30 * time.Second)
			if busy {
				id = postJob(t, env.ts.URL, spec)
				for getJobState(t, env.ts.URL, id).Completed == 0 {
					if time.Now().After(deadline) {
						t.Fatal("no progress before drain")
					}
					time.Sleep(5 * time.Millisecond)
				}
			} else {
				for len(getFleet(t, env.ts.URL).Workers) == 0 {
					if time.Now().After(deadline) {
						t.Fatal("worker never registered")
					}
					time.Sleep(5 * time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond) // its acquire is now held
			}
			start := time.Now()
			w.Drain()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("drained worker did not exit")
			}
			if d := time.Since(start); !busy && d > 100*time.Millisecond {
				t.Fatalf("idle worker took %v to drain, want within 100ms", d)
			}
			if busy && w.CellsCompleted() == 0 {
				t.Fatal("drained worker abandoned its cell")
			}
			if v := metricValue(t, env.ts.URL, "cobrad_fleet_leases_expired_total"); v != 0 {
				t.Fatalf("drain leaked an expired lease: %v", v)
			}
			if busy {
				awaitDrainedSweep(t, env, id)
			}
		})
	}
}

// awaitDrainedSweep finishes the drained test's sweep with a fresh
// worker so the env teardown does not abort a half-done job.
func awaitDrainedSweep(t *testing.T, env *fleetEnv, id string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, ctx, env, "finisher", 15*time.Millisecond)
	awaitJobDone(t, env.ts.URL, id, 60*time.Second)
}
