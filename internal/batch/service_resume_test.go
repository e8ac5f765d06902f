package batch

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// The resume acceptance suite: a killed server restarted on its data
// directory must replay the committed journal prefix from disk and
// execute only the tail — byte-identical full stream, no recomputed
// prefix — at every crash-boundary class. Preemption is the same
// contract triggered from the scheduler instead of a crash.

// truncatedJournal rebuilds a journal as a crash would have left it:
// the header, the first m result lines, and an optional torn tail.
func truncatedJournal(t *testing.T, journal []byte, m int, tail string) []byte {
	t.Helper()
	lines := bytes.SplitAfter(journal, []byte("\n"))
	if len(lines) < m+2 {
		t.Fatalf("journal has %d lines, need header + %d results", len(lines), m)
	}
	var buf bytes.Buffer
	for i := 0; i <= m; i++ {
		buf.Write(lines[i])
	}
	buf.WriteString(tail)
	return buf.Bytes()
}

// TestServiceResumeCrashShapes doctors a finished job's journal into
// every crash shape — header only, clean commit boundary, torn final
// line, sweep cell boundary, sweep mid-cell — and asserts that recovery
// (a) serves the uninterrupted run's exact bytes and (b) recomputes
// exactly the uncommitted tail: TrialsExecuted counts live trials only,
// so it must equal total − m.
func TestServiceResumeCrashShapes(t *testing.T) {
	campaign := testSpec()
	sweep := testSweepSpec()

	kinds := []struct {
		name    string
		id      string
		total   int
		submit  func(t *testing.T, ts *httptest.Server) string
		results string
		status  string
		shapes  []struct {
			name string
			m    int
			tail string
		}
	}{
		{
			name:  "campaign",
			id:    "c000001",
			total: campaign.Trials,
			submit: func(t *testing.T, ts *httptest.Server) string {
				return postCampaign(t, ts, campaign)
			},
			results: "/v1/campaigns/c000001/results",
			status:  "/v1/campaigns/c000001",
			shapes: []struct {
				name string
				m    int
				tail string
			}{
				{"header-only", 0, ""},
				{"clean-boundary", 17, ""},
				{"torn-tail", 17, `{"trial":17,"rou`},
				{"one-uncommitted", campaign.Trials - 1, ""},
			},
		},
		{
			name:  "sweep",
			id:    "s000001",
			total: sweep.CellCount() * sweep.Trials,
			submit: func(t *testing.T, ts *httptest.Server) string {
				return postSweep(t, ts, sweep)
			},
			results: "/v1/sweeps/s000001/results",
			status:  "/v1/sweeps/s000001",
			shapes: []struct {
				name string
				m    int
				tail string
			}{
				{"cell-boundary", 3 * sweep.Trials, ""},
				{"mid-cell", 3*sweep.Trials + 4, ""},
				{"mid-cell-torn", 3*sweep.Trials + 4, `{"cell":3,"trial`},
			},
		},
	}

	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			// One uninterrupted durable run provides both the golden bytes
			// and the journal every crash shape is carved from.
			srcDir := t.TempDir()
			svc, ts := newPersistentServer(t, srcDir, ServerConfig{})
			if got := kind.submit(t, ts); got != kind.id {
				t.Fatalf("job id %s, want %s", got, kind.id)
			}
			awaitTerminal(t, ts, kind.status, StateDone)
			golden, trailer := fetchRaw(t, ts, kind.results)
			if trailer != StreamComplete {
				t.Fatalf("golden trailer %q", trailer)
			}
			ts.Close()
			svc.Close()
			journal, err := os.ReadFile(filepath.Join(srcDir, kind.id+".ndjson"))
			if err != nil {
				t.Fatal(err)
			}

			for _, shape := range kind.shapes {
				t.Run(shape.name, func(t *testing.T) {
					dir := t.TempDir()
					doctored := truncatedJournal(t, journal, shape.m, shape.tail)
					if err := os.WriteFile(filepath.Join(dir, kind.id+".ndjson"), doctored, 0o644); err != nil {
						t.Fatal(err)
					}
					svc, ts := newPersistentServer(t, dir, ServerConfig{})
					t.Cleanup(func() { ts.Close(); svc.Close() })
					awaitTerminal(t, ts, kind.status, StateDone)
					recovered, trailer := fetchRaw(t, ts, kind.results)
					if trailer != StreamComplete {
						t.Fatalf("recovered trailer %q", trailer)
					}
					if !bytes.Equal(recovered, golden) {
						t.Fatalf("recovered stream differs from golden: %d vs %d bytes",
							len(recovered), len(golden))
					}
					// The committed prefix came from disk, not recomputation.
					if exec := svc.TrialsExecuted(); exec != int64(kind.total-shape.m) {
						t.Fatalf("executed %d trials, want %d (total %d, committed %d)",
							exec, kind.total-shape.m, kind.total, shape.m)
					}
				})
			}

			// A journal torn inside its header line cannot be resumed or
			// reset: recovery quarantines it and keeps serving.
			t.Run("mid-header", func(t *testing.T) {
				dir := t.TempDir()
				header := journal[:bytes.IndexByte(journal, '\n')]
				if err := os.WriteFile(filepath.Join(dir, kind.id+".ndjson"), header[:len(header)/2], 0o644); err != nil {
					t.Fatal(err)
				}
				svc, ts := newPersistentServer(t, dir, ServerConfig{})
				t.Cleanup(func() { ts.Close(); svc.Close() })
				resp, err := http.Get(ts.URL + kind.status)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound {
					t.Fatalf("torn-header journal served as a job: status %d", resp.StatusCode)
				}
				if _, err := os.Stat(filepath.Join(dir, kind.id+".ndjson.corrupt")); err != nil {
					t.Fatalf("torn-header journal not quarantined: %v", err)
				}
				if _, err := os.Stat(filepath.Join(dir, kind.id+".ndjson")); !os.IsNotExist(err) {
					t.Fatalf("torn-header journal still in place (err %v)", err)
				}
			})
		})
	}
}

// preemptionsOf reads the preemption counter off a status payload.
func preemptionsOf(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Preemptions int `json:"preemptions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Preemptions
}

// TestServicePreemptResume: with Preempt on, a higher-priority
// submission checkpoints the running low-priority job at a trial
// boundary and requeues it; the resumed job must still produce the
// uninterrupted run's exact bytes — including for a follower that was
// streaming across the preemption — and its status must report the
// checkpoint. Covered for a durable campaign, a durable sweep, and an
// in-memory campaign (no store: the checkpoint is RAM state alone).
//
// The victim's committer is held before it records trial holdAt until
// the interloper is queued, so the yield is seen at that boundary. The
// claimers run at most 64 buffered events plus one unit per worker ahead
// of the committer, and each victim has far more trials than that past
// holdAt: the yield always finds trials left to checkpoint, instead of a
// run whose every trial was already computed.
func TestServicePreemptResume(t *testing.T) {
	const holdAt = 10
	victim := testSpec()
	victim.Graph = "grid:64:64"
	victim.Trials = 200
	victim.Workers = 2
	sweepVictim := SweepSpec{
		Graphs:    []string{"grid:64:64"},
		Processes: []string{"cobra"},
		Branches:  []int{2, 3},
		Trials:    80,
		Seed:      7,
		Workers:   2,
	}
	interloper := testSpec()
	interloper.Priority = 9

	golden := func(t *testing.T, submit func(*testing.T, *httptest.Server) string, results func(string) string, status func(string) string) []byte {
		svc := NewServer(ServerConfig{})
		ts := httptest.NewServer(svc)
		defer func() { ts.Close(); svc.Close() }()
		id := submit(t, ts)
		awaitTerminal(t, ts, status(id), StateDone)
		body, trailer := fetchRaw(t, ts, results(id))
		if trailer != StreamComplete {
			t.Fatalf("golden trailer %q", trailer)
		}
		return body
	}
	campaignSubmit := func(t *testing.T, ts *httptest.Server) string { return postCampaign(t, ts, victim) }
	campaignResults := func(id string) string { return "/v1/campaigns/" + id + "/results" }
	campaignStatus := func(id string) string { return "/v1/campaigns/" + id }
	sweepSubmit := func(t *testing.T, ts *httptest.Server) string { return postSweep(t, ts, sweepVictim) }
	sweepResults := func(id string) string { return "/v1/sweeps/" + id + "/results" }
	sweepStatus := func(id string) string { return "/v1/sweeps/" + id }

	cases := []struct {
		name    string
		durable bool
		submit  func(*testing.T, *httptest.Server) string
		results func(string) string
		status  func(string) string
	}{
		{"durable-campaign", true, campaignSubmit, campaignResults, campaignStatus},
		{"durable-sweep", true, sweepSubmit, sweepResults, sweepStatus},
		{"in-memory-campaign", false, campaignSubmit, campaignResults, campaignStatus},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := golden(t, tc.submit, tc.results, tc.status)

			cfg := ServerConfig{CampaignWorkers: 1, Preempt: true}
			var svc *Server
			var ts *httptest.Server
			if tc.durable {
				svc, ts = newPersistentServer(t, t.TempDir(), cfg)
			} else {
				svc = NewServer(cfg)
				ts = httptest.NewServer(svc)
			}
			held, release := make(chan struct{}), make(chan struct{})
			var hold, freed sync.Once
			free := func() { freed.Do(func() { close(release) }) }
			svc.setCommitHook(func(r CellResult) {
				if r.Cell == 0 && r.Trial == holdAt {
					hold.Do(func() { close(held); <-release })
				}
			})
			t.Cleanup(func() { ts.Close(); svc.Close() })
			t.Cleanup(free) // runs first: a failed test never leaves the committer parked

			id := tc.submit(t, ts)
			<-held // the victim's committer waits before recording trial holdAt
			// A follower attached before the preemption must see the whole
			// stream: preempt + resume is invisible to live clients.
			followerCh := make(chan []byte, 1)
			go func() {
				resp, err := http.Get(ts.URL + tc.results(id))
				if err != nil {
					followerCh <- nil
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				followerCh <- b
			}()

			// The interloper's POST answers after it is queued and the
			// victim was asked to yield.
			high := postCampaign(t, ts, interloper)
			free()
			awaitTerminal(t, ts, "/v1/campaigns/"+high, StateDone)
			awaitTerminal(t, ts, tc.status(id), StateDone)

			if n := preemptionsOf(t, ts, tc.status(id)); n < 1 {
				t.Fatalf("victim reports %d preemptions, want >= 1", n)
			}
			if svc.Preemptions() < 1 {
				t.Fatal("server preemption counter never moved")
			}
			got, trailer := fetchRaw(t, ts, tc.results(id))
			if trailer != StreamComplete {
				t.Fatalf("victim trailer %q", trailer)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("preempted-then-resumed stream differs from uninterrupted run: %d vs %d bytes",
					len(got), len(want))
			}
			if follower := <-followerCh; !bytes.Equal(follower, want) {
				t.Fatalf("live follower lost bytes across the preemption: %d vs %d",
					len(follower), len(want))
			}
			if !tc.durable {
				return
			}
			// The one journal the job kept across the preemption holds the
			// uninterrupted run's bytes too.
			it, err := svc.store.Results(id)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			var journal []byte
			for it.Next() {
				journal = append(append(journal, it.Line()...), '\n')
			}
			if it.Err() != nil || !bytes.Equal(journal, want) {
				t.Fatalf("journal after preempt + resume differs from the uninterrupted run: %d vs %d bytes (err %v)",
					len(journal), len(want), it.Err())
			}
		})
	}
}

// TestServiceRetentionTTLTicker proves TTL eviction no longer waits for
// the next terminal transition: after the last job finishes, nothing
// touches the server — only the background ticker can evict it.
func TestServiceRetentionTTLTicker(t *testing.T) {
	svc, ts := newPersistentServer(t, t.TempDir(), ServerConfig{RetainResults: -1, RetainTTL: 40 * time.Millisecond})
	t.Cleanup(func() { ts.Close(); svc.Close() })
	spec := testSpec()
	spec.Trials = 3
	id := postCampaign(t, ts, spec)
	awaitTerminal(t, ts, "/v1/campaigns/"+id, StateDone)
	// No further submissions or HTTP reads: finishJob has already run, so
	// from here only the retention ticker observes the TTL.
	awaitEvicted(t, svc, id)
}

// TestServiceRetentionFakeClock pins the read-path half of the fix with
// a fake clock: a status read on a server whose clock jumped past the
// TTL evicts synchronously, without waiting for the ticker.
func TestServiceRetentionFakeClock(t *testing.T) {
	svc, ts := newPersistentServer(t, t.TempDir(), ServerConfig{RetainResults: -1, RetainTTL: time.Hour})
	t.Cleanup(func() { ts.Close(); svc.Close() })
	spec := testSpec()
	spec.Trials = 3
	id := postCampaign(t, ts, spec)
	awaitTerminal(t, ts, "/v1/campaigns/"+id, StateDone)
	if jobEvicted(svc, id) {
		t.Fatal("job evicted inside its one-hour TTL")
	}
	svc.setClock(func() time.Time { return time.Now().Add(2 * time.Hour) })
	getStatus(t, ts, "/v1/campaigns/"+id) // the read itself enforces the TTL
	if !jobEvicted(svc, id) {
		t.Fatal("status read did not evict a job past its TTL")
	}
	// Evicted results still serve byte-for-byte from the journal.
	if _, trailer := fetchRaw(t, ts, "/v1/campaigns/"+id+"/results"); trailer != StreamComplete {
		t.Fatalf("evicted job trailer %q", trailer)
	}
}
