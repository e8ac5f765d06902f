package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/store"
)

// TestLeaseLogJournalMetrics builds a durable coordinator in cobrad's
// order: the coordinator opens leases.log before batch.NewServerWith
// attaches the store's instruments. The lease log still reports to the
// journal families it shares with the job journals, so after one leased
// campaign cobrad_journal_appends_total counts every line on disk (the
// job journal's and the lease log's), and cobrad_journal_fsync_seconds
// counts the lease log's grant and completion commits on top of the job
// journal's header and seal commits.
func TestLeaseLogJournalMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(CoordinatorConfig{Store: st, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := batch.NewServerWith(batch.ServerConfig{Remote: co, Logger: quietLogger()}, st)
	if err != nil {
		t.Fatal(err)
	}
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
	env := &fleetEnv{ts: ts, svc: svc, co: co}

	ctx, cancel := context.WithCancel(context.Background())
	_, done := startWorker(t, ctx, env, "w1", time.Second)
	id := postJob(t, ts.URL, batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: 4, Seed: 1})
	awaitJobDone(t, ts.URL, id, 30*time.Second)
	cancel()
	<-done

	lines := func(name string) int {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(raw, []byte("\n"))
	}
	leaseLines, jobLines := lines("leases.log"), lines(id+".ndjson")
	if leaseLines < 2 {
		t.Fatalf("leases.log holds %d lines, want a grant and a completion", leaseLines)
	}
	if got, want := metricValue(t, ts.URL, "cobrad_journal_appends_total"), float64(jobLines+leaseLines); got != want {
		t.Fatalf("cobrad_journal_appends_total = %v, want %d job journal + %d lease log lines", got, jobLines, leaseLines)
	}
	if got := metricValue(t, ts.URL, "cobrad_journal_fsync_seconds_count"); got < 4 {
		t.Fatalf("cobrad_journal_fsync_seconds_count = %v, want >= 4 (job header and seal, lease grant and completion)", got)
	}
}
