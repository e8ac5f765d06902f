package batch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestRecoverOldJournals recovers a store written by the build before
// campaign jobs ran as one-cell sweeps, and checks that every job comes
// back with the state, aggregate, error and result bytes that build gave
// it. The journals under testdata/journals are never regenerated: they
// are the evidence that stores already on disk keep recovering.
//
// The store holds the CI golden campaign (rreg:1024:3, cobra, b = 2, 64
// trials, seed 1) and the golden 2-cell sweep (b in {2, 3}) cut into
// every crash shape TestServiceResumeCrashShapes uses, plus sealed done,
// failed (max_rounds 29, workers 1) and expired jobs of each kind.
func TestRecoverOldJournals(t *testing.T) {
	src := filepath.Join("testdata", "journals")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir() // recovery truncates torn tails and appends: work on a copy
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	campaign := Spec{Graph: "rreg:1024:3", Process: "cobra", Branch: 2, Trials: 64, Seed: 1}
	sweep := SweepSpec{Graphs: []string{"rreg:1024:3"}, Processes: []string{"cobra"}, Branches: []int{2, 3}, Trials: 64, Seed: 1}
	campResults, campAgg := runCampaign(t, campaign, nil)
	sweepResults, sweepCells := runSweep(t, sweep, nil)
	for i := range sweepCells {
		sweepCells[i].Phase = CellDone
	}
	// The library path's json.Marshal lines: the bytes a journal holds
	// and the results endpoint serves.
	lines := func(n int, rec func(i int) any) []byte {
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			b, err := json.Marshal(rec(i))
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(b, '\n'))
		}
		return buf.Bytes()
	}

	svc, ts := newPersistentServer(t, dir, ServerConfig{})
	t.Cleanup(func() { ts.Close(); svc.Close() })

	const roundLimit = "trial 25: batch: round limit exceeded: 29 rounds on rreg-1024-r3"
	const missed = "deadline 2020-01-01T00:00:00Z passed before the job started"
	cases := []struct {
		id        string
		state     JobState
		completed int
		errMsg    string
		tail      int // trials recovery computes; 0 for sealed journals
	}{
		{"c000001", StateDone, 64, "", 64},                                               // header-only
		{"c000002", StateDone, 64, "", 47},                                               // clean boundary at 17
		{"c000003", StateDone, 64, "", 47},                                               // torn tail after 17
		{"c000004", StateDone, 64, "", 1},                                                // one uncommitted
		{"s000005", StateDone, 128, "", 64},                                              // cell boundary
		{"s000006", StateDone, 128, "", 60},                                              // mid-cell
		{"s000007", StateDone, 128, "", 60},                                              // mid-cell, torn
		{"c000008", StateDone, 64, "", 0},                                                // sealed done
		{"s000009", StateDone, 128, "", 0},                                               // sealed done
		{"c000010", StateFailed, 25, roundLimit, 0},                                      // sealed failed
		{"s000011", StateFailed, 25, "cell 0 (rreg:1024:3 cobra b=2): " + roundLimit, 0}, // sealed failed
		{"c000012", StateExpired, 0, missed, 0},                                          // sealed expired
		{"s000013", StateExpired, 0, missed, 0},                                          // sealed expired
	}
	tails := 0
	for _, tc := range cases {
		tails += tc.tail
		t.Run(tc.id, func(t *testing.T) {
			isCampaign := tc.id[0] == 'c'
			path := "/v1/sweeps/" + tc.id
			if isCampaign {
				path = "/v1/campaigns/" + tc.id
			}
			st := awaitTerminal(t, ts, path, tc.state)
			if st.Completed != tc.completed || st.Error != tc.errMsg {
				t.Fatalf("restored completed=%d error=%q, want %d %q", st.Completed, st.Error, tc.completed, tc.errMsg)
			}
			body, trailer := fetchRaw(t, ts, path+"/results")
			if trailer != StreamComplete {
				t.Fatalf("results trailer %q", trailer)
			}
			var want []byte
			if isCampaign {
				want = lines(tc.completed, func(i int) any { return campResults[i] })
			} else {
				want = lines(tc.completed, func(i int) any { return sweepResults[i] })
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("results differ from the library path: %d vs %d bytes", len(body), len(want))
			}

			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if isCampaign {
				var js jobStatus
				if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
					t.Fatal(err)
				}
				switch {
				case tc.state == StateDone && (js.Aggregate == nil || *js.Aggregate != *campAgg):
					t.Fatalf("aggregate %+v, want %+v", js.Aggregate, *campAgg)
				case tc.state != StateDone && js.Aggregate != nil:
					t.Fatalf("%s job reports aggregate %+v", tc.state, *js.Aggregate)
				}
				return
			}
			var ss sweepStatus
			if err := json.NewDecoder(resp.Body).Decode(&ss); err != nil {
				t.Fatal(err)
			}
			if tc.state == StateDone {
				if !reflect.DeepEqual(ss.CellAggs, sweepCells) {
					t.Fatalf("cell aggregates %+v, want %+v", ss.CellAggs, sweepCells)
				}
				return
			}
			for _, cs := range ss.CellAggs {
				if cs.Phase != CellFailed || cs.Aggregate != nil {
					t.Fatalf("%s sweep cell %d: phase %q aggregate %v", tc.state, cs.Cell, cs.Phase, cs.Aggregate)
				}
			}
		})
	}
	// Resumed jobs replayed their committed prefix from disk and computed
	// only the tail past it.
	if got := svc.TrialsExecuted(); got != int64(tails) {
		t.Fatalf("recovery computed %d trials, want %d", got, tails)
	}
}
