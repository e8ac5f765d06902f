package batch

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/cobra/internal/store"
)

// The durability suite: kill/restart recovery must be byte-identical,
// finished jobs must be restorable (and servable) from disk alone, the
// retention policy must bound RAM, and priorities/deadlines must survive
// the journal round-trip.

func newPersistentServer(t *testing.T, dir string, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServerWith(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	return svc, ts
}

// fetchRaw returns a results endpoint's exact NDJSON bytes plus the
// stream trailer.
func fetchRaw(t *testing.T, ts *httptest.Server, path string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.Trailer.Get(StreamTrailer)
}

// The tentpole acceptance test: a job interrupted mid-run by shutdown
// and recovered from its journal produces NDJSON byte-identical to an
// uninterrupted run — and the prefix streamed before the kill is a
// byte-prefix of the recovered stream. Exercised for both job kinds.
func TestServiceRecoveryByteIdentical(t *testing.T) {
	campaign := testSpec()
	campaign.Graph = "grid:64:64"
	campaign.Trials = 200
	sweep := SweepSpec{
		Graphs:    []string{"grid:64:64"},
		Processes: []string{"cobra"},
		Branches:  []int{2, 3},
		Trials:    60,
		Seed:      7,
	}

	kinds := []struct {
		name    string
		submit  func(t *testing.T, ts *httptest.Server) string
		results func(id string) string
		status  func(id string) string
	}{
		{
			name:    "campaign",
			submit:  func(t *testing.T, ts *httptest.Server) string { return postCampaign(t, ts, campaign) },
			results: func(id string) string { return "/v1/campaigns/" + id + "/results" },
			status:  func(id string) string { return "/v1/campaigns/" + id },
		},
		{
			name:    "sweep",
			submit:  func(t *testing.T, ts *httptest.Server) string { return postSweep(t, ts, sweep) },
			results: func(id string) string { return "/v1/sweeps/" + id + "/results" },
			status:  func(id string) string { return "/v1/sweeps/" + id },
		},
	}

	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			// Golden: the uninterrupted run on a plain in-memory server.
			goldenSvc := NewServer(ServerConfig{})
			goldenTS := httptest.NewServer(goldenSvc)
			goldenID := kind.submit(t, goldenTS)
			awaitTerminal(t, goldenTS, kind.status(goldenID), StateDone)
			golden, trailer := fetchRaw(t, goldenTS, kind.results(goldenID))
			if trailer != StreamComplete {
				t.Fatalf("golden trailer %q", trailer)
			}
			goldenTS.Close()
			goldenSvc.Close()

			// Interrupted leg: submit against a durable server, capture the
			// live stream, and kill the server mid-run.
			dir := t.TempDir()
			svcA, tsA := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1})
			id := kind.submit(t, tsA)
			prefixCh := make(chan []byte, 1)
			go func() {
				resp, err := http.Get(tsA.URL + kind.results(id))
				if err != nil {
					prefixCh <- nil
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body) // truncated when the server dies
				prefixCh <- b
			}()
			waitCompleted(t, tsA, kind.status(id), 10)
			svcA.Close()
			prefix := <-prefixCh
			tsA.Close()
			// Only whole delivered lines count as the pre-kill prefix.
			if i := bytes.LastIndexByte(prefix, '\n'); i >= 0 {
				prefix = prefix[:i+1]
			} else {
				prefix = nil
			}

			// Restart on the same directory: the interrupted job is requeued
			// and re-run; the recovered stream must equal the golden bytes,
			// with the pre-kill prefix as a byte-prefix.
			svcB, tsB := newPersistentServer(t, dir, ServerConfig{})
			awaitTerminal(t, tsB, kind.status(id), StateDone)
			recovered, trailer := fetchRaw(t, tsB, kind.results(id))
			if trailer != StreamComplete {
				t.Fatalf("recovered trailer %q", trailer)
			}
			if !bytes.Equal(recovered, golden) {
				t.Fatalf("recovered NDJSON differs from uninterrupted run: %d vs %d bytes",
					len(recovered), len(golden))
			}
			if !bytes.HasPrefix(recovered, prefix) {
				t.Fatalf("pre-kill stream (%d bytes) is not a prefix of the recovered stream", len(prefix))
			}
			tsB.Close()
			svcB.Close()

			// Third generation: the finished job restores from its sealed
			// journal without re-running, results served from disk.
			svcC, tsC := newPersistentServer(t, dir, ServerConfig{})
			st := awaitTerminal(t, tsC, kind.status(id), StateDone)
			if st.Completed == 0 {
				t.Fatal("restored job lost its completed count")
			}
			restored, trailer := fetchRaw(t, tsC, kind.results(id))
			if trailer != StreamComplete {
				t.Fatalf("restored trailer %q", trailer)
			}
			if !bytes.Equal(restored, golden) {
				t.Fatal("journal-served NDJSON differs from uninterrupted run")
			}
			svcC.mu.Lock()
			job := svcC.jobs[id]
			if job == nil {
				job = svcC.sweeps[id]
			}
			svcC.mu.Unlock()
			job.mu.Lock()
			evicted := job.evicted
			job.mu.Unlock()
			if !evicted {
				t.Fatal("restored job holds results in RAM; they must stay on disk")
			}
			tsC.Close()
			svcC.Close()
		})
	}
}

// genericStatus is the subset of the campaign and sweep status payloads
// the recovery tests need.
type genericStatus struct {
	State     JobState `json:"state"`
	Completed int      `json:"completed"`
	Error     string   `json:"error"`
}

func getStatus(t *testing.T, ts *httptest.Server, path string) genericStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	var st genericStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func awaitTerminal(t *testing.T, ts *httptest.Server, path string, want JobState) genericStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, path)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("%s reached %s (%s) awaiting %s", path, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck in %s awaiting %s", path, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitCompleted(t *testing.T, ts *httptest.Server, path string, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := getStatus(t, ts, path)
		if st.Completed >= n {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("%s finished (%s) before reaching %d results", path, st.State, n)
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at %d results awaiting %d", path, st.Completed, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Bounded retention: beyond RetainResults finished jobs, the oldest
// jobs' result slices leave RAM — status and aggregates stay, results
// re-serve byte-identically from the journal (the memory-retention
// bugfix: a long-lived server no longer accretes every trial ever run).
func TestServiceRetentionEviction(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{RetainResults: 1})
	t.Cleanup(func() { ts.Close(); svc.Close() })

	spec := testSpec()
	spec.Trials = 5
	var ids []string
	var bodies [][]byte
	for i := 0; i < 3; i++ {
		id := postCampaign(t, ts, spec)
		awaitTerminal(t, ts, "/v1/campaigns/"+id, StateDone)
		body, _ := fetchRaw(t, ts, "/v1/campaigns/"+id+"/results")
		ids = append(ids, id)
		bodies = append(bodies, body)
	}

	// Watchers wake on the terminal state before the journal seals and
	// the retention pass runs (sealing fsyncs outside job.mu), so observe
	// eviction with a deadline, not instantaneously.
	awaitEvicted(t, svc, ids[0])
	awaitEvicted(t, svc, ids[1])
	if jobEvicted(svc, ids[2]) {
		t.Fatal("newest finished job evicted despite RetainResults=1")
	}

	for i, id := range ids {
		st := getStatus(t, ts, "/v1/campaigns/"+id)
		if st.State != StateDone || st.Completed != spec.Trials {
			t.Fatalf("job %s status after eviction: %+v", id, st)
		}
		body, trailer := fetchRaw(t, ts, "/v1/campaigns/"+id+"/results")
		if trailer != StreamComplete {
			t.Fatalf("job %s trailer %q after eviction", id, trailer)
		}
		if !bytes.Equal(body, bodies[i]) {
			t.Fatalf("job %s results changed after eviction", id)
		}
	}

	// The aggregate must survive eviction (only result slices leave RAM).
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	var full jobStatus
	err = json.NewDecoder(resp.Body).Decode(&full)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if full.Aggregate == nil || full.Aggregate.Completed != spec.Trials {
		t.Fatalf("evicted job lost its aggregate: %+v", full.Aggregate)
	}
}

// TTL-based retention: jobs finished longer than RetainTTL ago are
// evicted at the next terminal transition even when the count bound is
// off.
func TestServiceRetentionTTL(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{RetainResults: -1, RetainTTL: 200 * time.Millisecond})
	t.Cleanup(func() { ts.Close(); svc.Close() })

	spec := testSpec()
	spec.Trials = 3
	old := postCampaign(t, ts, spec)
	awaitTerminal(t, ts, "/v1/campaigns/"+old, StateDone)
	time.Sleep(500 * time.Millisecond) // let the first job age well past the TTL
	fresh := postCampaign(t, ts, spec)
	awaitTerminal(t, ts, "/v1/campaigns/"+fresh, StateDone)

	awaitEvicted(t, svc, old)
	if jobEvicted(svc, fresh) {
		t.Fatal("fresh job evicted despite being inside the TTL")
	}
}

func jobEvicted(svc *Server, id string) bool {
	svc.mu.Lock()
	job := svc.jobs[id]
	svc.mu.Unlock()
	job.mu.Lock()
	defer job.mu.Unlock()
	return job.evicted
}

// awaitEvicted waits for the retention pass, which runs after the
// terminal-state bump (journal sealing happens outside job.mu).
func awaitEvicted(t *testing.T, svc *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !jobEvicted(svc, id) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never evicted", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Deadline-expired jobs reach the distinct "expired" terminal state
// without running, and the verdict survives a restart.
func TestServiceDeadlineExpired(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{})

	past := time.Now().Add(-time.Hour).Format(time.RFC3339)
	spec := testSpec()
	spec.Deadline = past
	id := postCampaign(t, ts, spec)
	st := awaitTerminal(t, ts, "/v1/campaigns/"+id, StateExpired)
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("expired job error %q", st.Error)
	}
	if st.Completed != 0 {
		t.Fatalf("expired job ran %d trials", st.Completed)
	}

	// Sweep twin, deadline via query parameter.
	sspec := testSweepSpec()
	body, _ := json.Marshal(sspec)
	resp, err := http.Post(ts.URL+"/v1/sweeps?deadline="+past, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	sid := out["id"]
	awaitTerminal(t, ts, "/v1/sweeps/"+sid, StateExpired)

	ts.Close()
	svc.Close()

	// The expired verdicts are durable: a restart restores them as-is.
	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })
	if st := getStatus(t, ts2, "/v1/campaigns/"+id); st.State != StateExpired {
		t.Fatalf("restored campaign state %s, want expired", st.State)
	}
	if st := getStatus(t, ts2, "/v1/sweeps/"+sid); st.State != StateExpired {
		t.Fatalf("restored sweep state %s, want expired", st.State)
	}

	// Malformed queue parameters and deadlines are rejected up front.
	for _, bad := range []string{"?priority=abc", "?deadline=tomorrow"} {
		body, _ := json.Marshal(testSpec())
		resp, err := http.Post(ts2.URL+"/v1/campaigns"+bad, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// A restart must also restore failed jobs (sealed journals) rather than
// re-running them, and list them in submission order alongside restored
// done jobs.
func TestServiceRestoresFailedJobs(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{})

	bad := Spec{Graph: "cycle:8", Process: "cobra", Branch: 2, Start: 100, Trials: 1, Seed: 1}
	badID := postCampaign(t, ts, bad) // compiles on the worker, fails there
	awaitTerminal(t, ts, "/v1/campaigns/"+badID, StateFailed)
	good := testSpec()
	good.Trials = 3
	goodID := postCampaign(t, ts, good)
	awaitTerminal(t, ts, "/v1/campaigns/"+goodID, StateDone)
	ts.Close()
	svc.Close()

	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })
	if st := getStatus(t, ts2, "/v1/campaigns/"+badID); st.State != StateFailed || !strings.Contains(st.Error, "out of range") {
		t.Fatalf("restored failed job: %+v", st)
	}
	if st := getStatus(t, ts2, "/v1/campaigns/"+goodID); st.State != StateDone || st.Completed != good.Trials {
		t.Fatalf("restored done job: %+v", st)
	}
	// Fresh submissions must not collide with recovered ids.
	freshID := postCampaign(t, ts2, good)
	if freshID == badID || freshID == goodID {
		t.Fatalf("id collision after recovery: %s", freshID)
	}
	awaitTerminal(t, ts2, "/v1/campaigns/"+freshID, StateDone)

	resp, err := http.Get(ts2.URL + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Campaigns []jobStatus `json:"campaigns"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 3 {
		t.Fatalf("listed %d campaigns, want 3", len(list.Campaigns))
	}
	for i, want := range []string{badID, goodID, freshID} {
		if list.Campaigns[i].ID != want {
			t.Fatalf("listing order: got %s at %d, want %s", list.Campaigns[i].ID, i, want)
		}
	}
}

// A restored sweep serves its summary table from the journal's terminal
// record.
func TestServiceRestoredSweepTable(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{})
	spec := testSweepSpec()
	spec.Graphs = spec.Graphs[:1]
	spec.Trials = 3
	id := postSweep(t, ts, spec)
	awaitTerminal(t, ts, "/v1/sweeps/"+id, StateDone)
	tableBefore := fetchTable(t, ts, id)
	ts.Close()
	svc.Close()

	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })
	tableAfter := fetchTable(t, ts2, id)
	if tableBefore != tableAfter {
		t.Fatalf("restored table differs:\n%s\nvs\n%s", tableAfter, tableBefore)
	}
}

func fetchTable(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Queue-full rollback with a store: the 503'd submission must leave no
// journal behind (otherwise a restart would resurrect a job the client
// was told to retry).
func TestServiceQueueFullRollsBackJournal(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1, QueueDepth: 1})

	long := longSpec()
	first := postCampaign(t, ts, long)
	awaitStateRaw(t, ts, first, StateRunning)
	postCampaign(t, ts, long) // fills the queue
	body, _ := json.Marshal(long)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, want 503", resp.StatusCode)
	}
	ts.Close()
	svc.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d journals on disk after a 503'd submission, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.Err != nil {
			t.Fatalf("journal %s: %v", rec.Header.ID, rec.Err)
		}
		if rec.Terminal != nil {
			t.Fatalf("journal %s sealed despite shutdown", rec.Header.ID)
		}
	}
}

// One unusable journal (valid header, undecodable spec) must not take
// the store down: recovery quarantines it (renamed <id>.ndjson.corrupt,
// never silently rescanned), restores the healthy jobs, and still
// advances the id counter past the bad file.
func TestServiceRecoverySkipsBadJournals(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{})
	spec := testSpec()
	spec.Trials = 3
	goodID := postCampaign(t, ts, spec)
	awaitTerminal(t, ts, "/v1/campaigns/"+goodID, StateDone)
	ts.Close()
	svc.Close()

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.Create(store.Header{
		Kind: store.KindCampaign, ID: "c000009", Created: time.Now(),
		Spec: json.RawMessage(`{"graph":42}`), // type mismatch: undecodable
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })
	if st := getStatus(t, ts2, "/v1/campaigns/"+goodID); st.State != StateDone {
		t.Fatalf("healthy job not restored alongside a bad journal: %+v", st)
	}
	resp, err := http.Get(ts2.URL + "/v1/campaigns/c000009")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad journal served as a job: status %d", resp.StatusCode)
	}
	freshID := postCampaign(t, ts2, spec)
	if idNumber(freshID) <= 9 {
		t.Fatalf("id counter did not advance past the bad journal: %s", freshID)
	}
	// The bad journal was quarantined, not left to be rescanned (and
	// re-logged) on every subsequent boot.
	if _, err := os.Stat(filepath.Join(dir, "c000009.ndjson.corrupt")); err != nil {
		t.Fatalf("bad journal not quarantined: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "c000009.ndjson")); !os.IsNotExist(err) {
		t.Fatalf("bad journal still in place (err %v)", err)
	}
}

// Recovery must reproduce cross-kind submission order: campaign and
// sweep ids share one counter, and requeue sequence follows numeric id
// order, not directory order (where every c* file sorts before any s*).
func TestServiceRecoveryCrossKindOrder(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1})
	blocker := postCampaign(t, ts, longSpec())
	awaitStateRaw(t, ts, blocker, StateRunning)
	sweepID := postSweep(t, ts, testSweepSpec()) // s000002, queued
	campID := postCampaign(t, ts, testSpec())    // c000003, queued
	ts.Close()
	svc.Close()

	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1})
	defer func() { ts2.Close(); svc2.Close() }()
	svc2.mu.Lock()
	sweepSeq := svc2.sweeps[sweepID].seq
	campSeq := svc2.jobs[campID].seq
	svc2.mu.Unlock()
	if sweepSeq >= campSeq {
		t.Fatalf("recovered FIFO order lost: sweep %s seq %d !< campaign %s seq %d",
			sweepID, sweepSeq, campID, campSeq)
	}
}

// The recovered queue preserves priorities: an interrupted high-priority
// job requeues ahead of an earlier-submitted low-priority one.
func TestServiceRecoveryKeepsPriority(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1})

	long := longSpec()
	blocker := postCampaign(t, ts, long)
	awaitStateRaw(t, ts, blocker, StateRunning)
	slow := testSpec()
	slow.Graph = "grid:64:64"
	slow.Trials = 200
	low := postCampaign(t, ts, slow)
	high := slow
	high.Priority = 9
	highID := postCampaign(t, ts, high)
	ts.Close()
	svc.Close() // blocker aborted, low/high drained — all unterminated

	// On restart all three requeue. Pop order is priority-first: the
	// recovered high-priority job starts before both priority-0 jobs —
	// including the blocker, despite its earlier submission sequence — so
	// `low` must still be queued when `high` leaves the queue.
	_ = blocker
	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{CampaignWorkers: 1})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })

	deadline := time.Now().Add(60 * time.Second)
	for {
		hs, ls := stateOf(svc2, highID), stateOf(svc2, low)
		if hs != StateQueued && ls == StateQueued {
			return
		}
		if ls != StateQueued {
			t.Fatalf("low-priority job left the recovered queue first (low %s, high %s)", ls, hs)
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered jobs never started (low %s, high %s)", ls, hs)
		}
		time.Sleep(time.Millisecond)
	}
}

// syncBuffer is a log sink the server's goroutines can share with the
// test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServiceFailedSealStaysResumable pins what a job whose journal
// fails publishes: it still shows its terminal state and serves its
// results from RAM, the failure is logged once at Error with the job
// id, retention never evicts it (it was never persisted), and the next
// recovery resumes it from its committed prefix — here just the header,
// so the job re-runs to the same bytes.
func TestServiceFailedSealStaysResumable(t *testing.T) {
	dir := t.TempDir()
	var logs syncBuffer
	cfg := ServerConfig{
		CampaignWorkers: 1,
		RetainResults:   -1,
		RetainTTL:       time.Hour,
		Logger:          slog.New(slog.NewTextHandler(&logs, nil)),
	}
	svc, ts := newPersistentServer(t, dir, cfg)
	blocker := testSpec()
	blocker.Graph = "grid:64:64"
	blocker.Trials = 100
	bid := postCampaign(t, ts, blocker)
	spec := testSpec()
	id := postCampaign(t, ts, spec)

	// Fail an append on the queued job's journal; taking job.mu while the
	// job is still queued orders the failure before its run.
	svc.mu.Lock()
	job := svc.jobs[id]
	svc.mu.Unlock()
	job.mu.Lock()
	if job.state != StateQueued {
		job.mu.Unlock()
		t.Fatalf("job %s left the queue before its journal could fail", id)
	}
	if job.journal.Append(make([]byte, 1<<20)) == nil {
		t.Fatal("oversized journal record accepted")
	}
	job.mu.Unlock()

	awaitTerminal(t, ts, "/v1/campaigns/"+bid, StateDone)
	awaitTerminal(t, ts, "/v1/campaigns/"+id, StateDone)
	live, trailer := fetchRaw(t, ts, "/v1/campaigns/"+id+"/results")
	if trailer != StreamComplete {
		t.Fatalf("live trailer %q", trailer)
	}
	if got := strings.Count(logs.String(), "level=ERROR msg=\"journal write failed"); got != 1 {
		t.Fatalf("%d Error records for the failed seal, want 1:\n%s", got, logs.String())
	}
	if !strings.Contains(logs.String(), "job="+id) {
		t.Fatalf("failed-seal record does not name job %s:\n%s", id, logs.String())
	}
	// Past the TTL the sealed blocker is evicted; the unsealed job is not.
	svc.setClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	getStatus(t, ts, "/v1/campaigns/"+id)
	if !jobEvicted(svc, bid) || jobEvicted(svc, id) {
		t.Fatalf("evicted: sealed %v, unsealed %v; want true, false", jobEvicted(svc, bid), jobEvicted(svc, id))
	}
	ts.Close()
	svc.Close()

	svc2, ts2 := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts2.Close(); svc2.Close() })
	awaitTerminal(t, ts2, "/v1/campaigns/"+id, StateDone)
	recovered, trailer := fetchRaw(t, ts2, "/v1/campaigns/"+id+"/results")
	if trailer != StreamComplete || !bytes.Equal(recovered, live) {
		t.Fatalf("resumed job's stream differs from the live run (trailer %q): %d vs %d bytes", trailer, len(recovered), len(live))
	}
	if exec := svc2.TrialsExecuted(); exec != int64(spec.Trials) {
		t.Fatalf("recovery executed %d trials, want %d (nothing past the header was committed)", exec, spec.Trials)
	}
}
