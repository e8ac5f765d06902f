package batch

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	svc := NewServer(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func postCampaign(t *testing.T, ts *httptest.Server, spec Spec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" {
		t.Fatalf("no id in %v", out)
	}
	return out["id"]
}

func awaitState(t *testing.T, ts *httptest.Server, id string, want JobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("campaign failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s awaiting %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchResults(t *testing.T, ts *httptest.Server, id string) []TrialResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	var out []TrialResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r TrialResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every fully-read stream must be sealed as complete (the shutdown
	// sentinel contract: truncation would say "aborted" here instead).
	if tr := resp.Trailer.Get(StreamTrailer); tr != StreamComplete {
		t.Fatalf("stream trailer %q, want %q", tr, StreamComplete)
	}
	return out
}

// The final clause of the determinism contract: the HTTP path reproduces
// the library path bit for bit — per-trial results and aggregates — and
// repeated submissions hit the warm graph cache without changing results.
func TestServiceMatchesLibraryPath(t *testing.T) {
	spec := testSpec()
	spec.Workers = 2
	libResults, libAgg := runCampaign(t, spec, nil)

	svc, ts := newTestServer(t, ServerConfig{})
	for round, label := range []string{"cold", "warm"} {
		id := postCampaign(t, ts, spec)
		st := awaitState(t, ts, id, StateDone)
		if st.Completed != spec.Trials {
			t.Fatalf("%s: completed %d of %d", label, st.Completed, spec.Trials)
		}
		if st.Aggregate == nil {
			t.Fatalf("%s: no aggregate", label)
		}
		if *st.Aggregate != *libAgg {
			t.Fatalf("%s cache: HTTP aggregate %+v != library %+v", label, *st.Aggregate, *libAgg)
		}
		got := fetchResults(t, ts, id)
		if len(got) != len(libResults) {
			t.Fatalf("%s: %d results, want %d", label, len(got), len(libResults))
		}
		for i := range got {
			if got[i] != libResults[i] {
				t.Fatalf("%s cache: trial %d over HTTP %+v != library %+v", label, i, got[i], libResults[i])
			}
		}
		if round == 1 {
			hits, misses, _ := svc.CacheStats()
			if misses != 1 || hits != 1 {
				t.Fatalf("graph cache hits=%d misses=%d, want 1/1", hits, misses)
			}
		}
	}
}

// A results request opened while the campaign runs must stream every
// trial and terminate when the campaign does.
func TestServiceStreamsLiveResults(t *testing.T) {
	spec := testSpec()
	spec.Graph = "grid:64:64" // slow enough to still be running at GET time
	spec.Trials = 30
	_, ts := newTestServer(t, ServerConfig{})
	id := postCampaign(t, ts, spec)
	got := fetchResults(t, ts, id) // follows until done
	if len(got) != spec.Trials {
		t.Fatalf("streamed %d results, want %d", len(got), spec.Trials)
	}
	for i, r := range got {
		if r.Trial != i {
			t.Fatalf("stream out of order at %d: %+v", i, r)
		}
	}
	awaitState(t, ts, id, StateDone)
}

func TestServiceValidation(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})

	for name, body := range map[string]string{
		"bad json":      "{",
		"unknown field": `{"graph":"cycle:8","process":"cobra","branch":2,"trials":1,"seed":1,"bogus":3}`,
		"bad spec":      `{"graph":"cycle:8","process":"warp","branch":2,"trials":1,"seed":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Oversized campaigns are rejected at submission (results live in
	// memory; the cap bounds per-job memory).
	huge := testSpec()
	huge.Trials = 2_000_000_000
	body, _ := json.Marshal(huge)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized campaign: status %d, want 400", resp.StatusCode)
	}

	// A spec that validates but fails at compile time fails the job, not
	// the submission (the graph is only built on a campaign worker).
	id := postCampaign(t, ts, Spec{Graph: "cycle:8", Process: "cobra", Branch: 2, Start: 100, Trials: 1, Seed: 1})
	st := awaitState(t, ts, id, StateFailed)
	if !strings.Contains(st.Error, "out of range") {
		t.Fatalf("unexpected failure message %q", st.Error)
	}

	for _, path := range []string{"/v1/campaigns/c999999", "/v1/campaigns/c999999/results", "/v1/campaigns/" + id + "/bogus"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServiceQueueBounded(t *testing.T) {
	// One campaign worker, queue depth 1: a long-running campaign plus a
	// queued one fill the service; the third submission must get 503.
	_, ts := newTestServer(t, ServerConfig{CampaignWorkers: 1, QueueDepth: 1})
	long := testSpec()
	long.Graph = "grid:128:128"
	long.Trials = 100000
	postCampaign(t, ts, long) // occupies the worker (aborted at Close)

	// Wait until the first job left the queue for the worker.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Campaigns []jobStatus `json:"campaigns"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Campaigns) == 1 && list.Campaigns[0].State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first campaign never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	postCampaign(t, ts, long) // sits in the queue
	body, _ := json.Marshal(long)
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: status %d, want 503", resp.StatusCode)
	}
}

func TestServiceHealthz(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

// Guard against accidental wire-format drift: the status payload must
// carry the documented field names.
func TestServiceWireFormat(t *testing.T) {
	spec := testSpec()
	spec.Trials = 3
	_, ts := newTestServer(t, ServerConfig{})
	id := postCampaign(t, ts, spec)
	awaitState(t, ts, id, StateDone)
	resp, err := http.Get(fmt.Sprintf("%s/v1/campaigns/%s", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "state", "spec", "trials", "completed", "aggregate"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("status payload missing %q: %v", key, raw)
		}
	}
	agg := raw["aggregate"].(map[string]any)
	rounds, ok := agg["rounds"].(map[string]any)
	if !ok {
		t.Fatalf("aggregate missing rounds: %v", agg)
	}
	for _, key := range []string{"N", "Mean", "Median", "CI95Lo", "CI95Hi"} {
		if _, ok := rounds[key]; !ok {
			t.Fatalf("rounds summary missing %q: %v", key, rounds)
		}
	}
}

// Run must stay deterministic under the race detector with a ctx that is
// cancelled mid-flight (regression guard for the shutdown path).
func TestServiceShutdownAbortsRunning(t *testing.T) {
	svc := NewServer(ServerConfig{CampaignWorkers: 1})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	long := testSpec()
	long.Graph = "grid:128:128"
	long.Trials = 100000
	id := postCampaign(t, ts, long)
	awaitStateRaw(t, ts, id, StateRunning)
	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not abort the running campaign")
	}
	// The aborted job ends failed with the cancellation recorded.
	st := awaitStateRaw(t, ts, id, StateFailed)
	if !strings.Contains(st.Error, context.Canceled.Error()) {
		t.Fatalf("aborted job error %q", st.Error)
	}
}

func postSweep(t *testing.T, ts *httptest.Server, spec SweepSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d", resp.StatusCode)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["id"] == "" || out["table_url"] == "" {
		t.Fatalf("sweep submit payload %v", out)
	}
	return out["id"]
}

func awaitSweepState(t *testing.T, ts *httptest.Server, id string, want JobState) sweepStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st sweepStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("sweep failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck in %s awaiting %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func fetchSweepResults(t *testing.T, ts *httptest.Server, id string) []CellResult {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("sweep results content type %q", ct)
	}
	var out []CellResult
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r CellResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if tr := resp.Trailer.Get(StreamTrailer); tr != StreamComplete {
		t.Fatalf("sweep stream trailer %q, want %q", tr, StreamComplete)
	}
	return out
}

// The sweep determinism contract over the wire: a sweep submitted over
// HTTP yields exactly the flattened results and per-cell aggregates of
// CompileSweep + Run, cold and warm, and the streamed NDJSON opened while
// the sweep runs follows it live in (cell, trial) order.
func TestServiceSweepMatchesLibraryPath(t *testing.T) {
	spec := testSweepSpec()
	spec.Workers = 2
	libResults, libCells := runSweep(t, spec, nil)

	svc, ts := newTestServer(t, ServerConfig{})
	for _, label := range []string{"cold", "warm"} {
		id := postSweep(t, ts, spec)
		got := fetchSweepResults(t, ts, id) // follows the live sweep until done
		if len(got) != len(libResults) {
			t.Fatalf("%s: %d results, want %d", label, len(got), len(libResults))
		}
		for i := range got {
			if got[i] != libResults[i] {
				t.Fatalf("%s cache: result %d over HTTP %+v != library %+v", label, i, got[i], libResults[i])
			}
		}
		st := awaitSweepState(t, ts, id, StateDone)
		if st.Cells != spec.CellCount() || st.Completed != spec.CellCount()*spec.Trials {
			t.Fatalf("%s: status cells=%d completed=%d", label, st.Cells, st.Completed)
		}
		if len(st.CellAggs) != len(libCells) {
			t.Fatalf("%s: %d cell aggregates, want %d", label, len(st.CellAggs), len(libCells))
		}
		for i := range st.CellAggs {
			if st.CellAggs[i].Aggregate == nil || *st.CellAggs[i].Aggregate != *libCells[i].Aggregate {
				t.Fatalf("%s cache: cell %d aggregate over HTTP differs from library", label, i)
			}
		}
	}
	// Two sweep submissions x 8 cells: each distinct graph compiled once.
	hits, misses, _ := svc.CacheStats()
	if misses != 2 || hits != 14 {
		t.Fatalf("graph cache hits=%d misses=%d, want 14/2", hits, misses)
	}
}

// The aggregate-table endpoint serves the cross-cell grid.
func TestServiceSweepTable(t *testing.T) {
	spec := testSweepSpec()
	spec.Graphs = spec.Graphs[:1]
	spec.Trials = 3
	_, ts := newTestServer(t, ServerConfig{})
	id := postSweep(t, ts, spec)
	awaitSweepState(t, ts, id, StateDone)
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + id + "/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var table struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != spec.CellCount() {
		t.Fatalf("table has %d rows for %d cells", len(table.Rows), spec.CellCount())
	}
	for _, row := range table.Rows {
		if len(row) != len(table.Header) {
			t.Fatalf("ragged table row %v", row)
		}
	}
}

func TestServiceSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	for name, body := range map[string]string{
		"bad json":      "{",
		"unknown field": `{"graphs":["cycle:8"],"processes":["cobra"],"branches":[2],"trials":1,"seed":1,"bogus":3}`,
		"bad axis":      `{"graphs":["cycle:8"],"processes":["warp"],"branches":[2],"trials":1,"seed":1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// The MaxTrials cap applies to the sweep total (cells x trials), and a
	// trial count huge enough to overflow the product must not slip past it.
	for _, trials := range []int{200_000 /* 8 cells x 200k = 1.6M > 1M */, 1 << (strconv.IntSize - 3) /* 8 x 2^61 (2^29 on 32 bits) wraps to 0 */} {
		huge := testSweepSpec()
		huge.Trials = trials
		body, _ := json.Marshal(huge)
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized sweep (trials=%d): status %d, want 400", trials, resp.StatusCode)
		}
	}

	for _, path := range []string{"/v1/sweeps/s999999", "/v1/sweeps/s999999/results", "/v1/sweeps/s999999/table"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Campaign ids and sweep ids live in separate namespaces.
	cid := postCampaign(t, ts, Spec{Graph: "cycle:8", Process: "cobra", Branch: 2, Trials: 1, Seed: 1})
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + cid)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("campaign id served as sweep: status %d", resp.StatusCode)
	}
}

func TestServiceSweepList(t *testing.T) {
	spec := testSweepSpec()
	spec.Graphs = spec.Graphs[:1]
	spec.Processes = spec.Processes[:1]
	spec.Trials = 2
	_, ts := newTestServer(t, ServerConfig{})
	id := postSweep(t, ts, spec)
	awaitSweepState(t, ts, id, StateDone)
	resp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Sweeps []sweepStatus `json:"sweeps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || list.Sweeps[0].ID != id {
		t.Fatalf("sweep list %+v", list.Sweeps)
	}
}

// awaitStateRaw is awaitState without the fail-on-StateFailed shortcut.
func awaitStateRaw(t *testing.T, ts *httptest.Server, id string, want JobState) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st jobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %s awaiting %s", id, st.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
