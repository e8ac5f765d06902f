package store

import (
	"testing"

	"github.com/repro/cobra/internal/obs"
)

// The store's observe-only instruments: appends and fsyncs tick as the
// journal is written, quarantines tick on quarantine — and a store with
// no instruments attached (the zero Metrics) behaves identically.
func TestStoreMetrics(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	appends := reg.Counter("appends_total", "journal record appends")
	fsync := reg.Histogram("fsync_seconds", "fsync latency", obs.ExpBuckets(0.0001, 4, 8))
	quarantines := reg.Counter("quarantines_total", "journals quarantined")
	s.SetMetrics(Metrics{Appends: appends, FsyncSeconds: fsync, Quarantines: quarantines})

	j := mustCreate(t, s, "c000001")
	// Create appends the header line and commits it durably: one append
	// and at least one fsync before any record lands.
	if got := appends.Value(); got != 1 {
		t.Fatalf("appends after create: %d", got)
	}
	createFsyncs := fsync.Count()
	if createFsyncs == 0 {
		t.Fatal("journal creation recorded no fsync")
	}
	record(t, j, 0, 7)
	record(t, j, 1, 9)
	if got := appends.Value(); got != 3 {
		t.Fatalf("appends after header + 2 records: %d", got)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := fsync.Count(); got <= createFsyncs {
		t.Fatalf("commit recorded no fsync (count still %d)", got)
	}
	// A commit with nothing pending, and a close after it, fsync nothing;
	// Append commits on its own once commitEvery records are pending.
	committed := fsync.Count()
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < commitEvery; k++ {
		record(t, j, 2+k, 1)
		if want := committed + int64((k+1)/commitEvery); fsync.Count() != want {
			t.Fatalf("after %d more records: %d fsyncs, want %d", k+1, fsync.Count(), want)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fsync.Count(); got != committed+1 {
		t.Fatalf("close with nothing pending fsynced: %d fsyncs, want %d", got, committed+1)
	}

	if err := s.Quarantine("c000001"); err != nil {
		t.Fatal(err)
	}
	if got := quarantines.Value(); got != 1 {
		t.Fatalf("quarantines after 1 quarantine: %d", got)
	}

	// The un-instrumented path must still work (nil instruments no-op).
	bare, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bj := mustCreate(t, bare, "c000002")
	record(t, bj, 0, 3)
	if err := bj.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := bj.Close(); err != nil {
		t.Fatal(err)
	}
}
