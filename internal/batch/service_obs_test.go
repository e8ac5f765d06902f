package batch

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/repro/cobra/internal/obs"
)

// The metrics-surface suite: /metrics must be valid Prometheus text
// exposition covering every instrumented layer, must agree with
// /v1/stats (the two endpoints read the same instruments), and both must
// survive being hammered concurrently with a running sweep under -race —
// without perturbing the sweep's results (observe-only).

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Lint(strings.NewReader(string(body))); err != nil {
		t.Fatalf("exposition does not lint: %v", err)
	}
	return string(body)
}

func fetchStats(t *testing.T, ts *httptest.Server) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats status %d", resp.StatusCode)
	}
	var stats map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func statInt(t *testing.T, stats map[string]json.RawMessage, key string) int64 {
	t.Helper()
	raw, ok := stats[key]
	if !ok {
		t.Fatalf("/v1/stats missing %q", key)
	}
	n, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		t.Fatalf("/v1/stats %q = %s: %v", key, raw, err)
	}
	return n
}

// metricValue extracts an unlabeled sample's value from an exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
		if err != nil {
			t.Fatalf("metric %s: bad value in %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// After a campaign and a sweep run on a durable server, the exposition
// lints, names every layer's instruments, and agrees with /v1/stats.
func TestMetricsExpositionCoversAllLayers(t *testing.T) {
	_, ts := newPersistentServer(t, t.TempDir(), ServerConfig{CellWorkers: 2})
	cid := postCampaign(t, ts, testSpec())
	awaitState(t, ts, cid, StateDone)
	sid := postSweep(t, ts, testSweepSpec())
	awaitSweepState(t, ts, sid, StateDone)

	exposition := scrapeMetrics(t, ts)
	layers := map[string][]string{
		"scheduler": {
			"cobrad_queue_depth", "cobrad_jobs_running", "cobrad_jobs_total",
			"cobrad_admission_wait_seconds", "cobrad_preemptions_total",
		},
		"cell scheduler": {
			"cobrad_cell_wall_seconds", "cobrad_reorder_buffer_cells",
			"cobrad_backpressure_stalls_total",
		},
		"graph cache": {
			"cobrad_graph_cache_hits_total", "cobrad_graph_cache_misses_total",
			"cobrad_graph_cache_evictions_total", "cobrad_graph_cache_entries",
		},
		"engine": {
			"cobrad_trials_executed_total", "cobrad_rounds_total",
		},
		"store": {
			"cobrad_journal_appends_total", "cobrad_journal_fsync_seconds",
			"cobrad_journal_quarantines_total", "cobrad_resume_tail_trials",
		},
	}
	for layer, names := range layers {
		for _, name := range names {
			if !strings.Contains(exposition, "# TYPE "+name+" ") {
				t.Errorf("%s layer: metric %s missing from exposition", layer, name)
			}
		}
	}

	stats := fetchStats(t, ts)
	wantTrials := int64(testSpec().Trials + len(testSweepSpec().Cells())*testSweepSpec().Trials)
	if got := statInt(t, stats, "trials_executed"); got != wantTrials {
		t.Fatalf("trials_executed %d, want %d", got, wantTrials)
	}
	if got := metricValue(t, exposition, "cobrad_trials_executed_total"); int64(got) != wantTrials {
		t.Fatalf("cobrad_trials_executed_total %v, want %d", got, wantTrials)
	}
	// Cross-endpoint parity on the shared instruments.
	for key, metric := range map[string]string{
		"cache_hits":      "cobrad_graph_cache_hits_total",
		"cache_misses":    "cobrad_graph_cache_misses_total",
		"journal_appends": "cobrad_journal_appends_total",
	} {
		if s, m := statInt(t, stats, key), int64(metricValue(t, exposition, metric)); s != m {
			t.Fatalf("%s=%d but %s=%d", key, s, metric, m)
		}
	}
	// The cell scheduler ran every sweep cell on a worker.
	if got := metricValue(t, exposition, "cobrad_cell_wall_seconds_count"); int(got) != len(testSweepSpec().Cells()) {
		t.Fatalf("cell_wall count %v, want %d cells", got, len(testSweepSpec().Cells()))
	}
}

// Every documented /v1/stats key is present (the full counter set).
func TestStatsFullCounterSet(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{})
	id := postCampaign(t, ts, testSpec())
	awaitState(t, ts, id, StateDone)
	stats := fetchStats(t, ts)
	for _, key := range []string{
		"trials_executed", "preemptions", "queue_depth", "jobs_running",
		"cache_hits", "cache_misses", "cache_evictions", "cache_size",
		"journal_appends", "journal_fsyncs", "journal_quarantines",
		"backpressure_stalls", "event_streams", "admission_waits",
		"rounds_sparse", "rounds_tiled",
	} {
		statInt(t, stats, key)
	}
	if _, ok := stats["queue_depth_by_band"]; !ok {
		t.Fatal("/v1/stats missing queue_depth_by_band")
	}
	// Every trial's rounds split into sparse and dense ("tiled") phases;
	// the two counters summed must cover at least one round per trial.
	sp, td := statInt(t, stats, "rounds_sparse"), statInt(t, stats, "rounds_tiled")
	if sp+td < int64(testSpec().Trials) {
		t.Fatalf("rounds_sparse %d + rounds_tiled %d < %d trials", sp, td, testSpec().Trials)
	}
}

// Concurrency hammer: scrape /metrics, /v1/stats, and job statuses from
// many goroutines while a sweep runs (meant for -race). The sweep's
// results must be identical to the unwatched library path — observation
// cannot perturb execution.
func TestStatsHammerDuringSweep(t *testing.T) {
	_, ts := newTestServer(t, ServerConfig{CellWorkers: 2})
	spec := testSweepSpec()
	spec.Trials = 60
	id := postSweep(t, ts, spec)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{"/metrics", "/v1/stats", "/v1/sweeps/" + id, "/v1/sweeps"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(g+i)%len(paths)])
				if err != nil {
					return // server shut down under us; the main goroutine decides
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				time.Sleep(time.Millisecond)
			}
		}(g)
	}
	awaitSweepState(t, ts, id, StateDone)
	close(stop)
	wg.Wait()

	got := fetchSweepResults(t, ts, id)
	want, _ := runSweep(t, spec, NewCache(8))
	if len(got) != len(want) {
		t.Fatalf("hammered sweep returned %d results, library path %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d diverged under observation: %+v vs %+v", i, got[i], want[i])
		}
	}
	scrapeMetrics(t, ts) // final exposition still lints
}
