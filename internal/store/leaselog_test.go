package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func leaseStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func grantAt(lease, job string, cell int, worker string, from int, expires time.Time) LeaseEvent {
	return LeaseEvent{Event: LeaseGrant, Lease: lease, Job: job, Cell: cell, Worker: worker, From: from, Expires: expires}
}

func TestLeaseLogRoundTrip(t *testing.T) {
	s := leaseStore(t)
	l, events, err := s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh log replayed %d events", len(events))
	}
	t0 := time.Unix(1000, 0).UTC()
	writes := []struct {
		ev     LeaseEvent
		commit bool
	}{
		{grantAt("l1", "s000001", 0, "w1", 0, t0.Add(10*time.Second)), true},
		{LeaseEvent{Event: LeaseRenew, Lease: "l1", Job: "s000001", Cell: 0, Worker: "w1", Expires: t0.Add(20 * time.Second)}, false},
		{LeaseEvent{Event: LeaseExpire, Lease: "l1", Job: "s000001", Cell: 0, Worker: "w1"}, true},
		{grantAt("l2", "s000001", 0, "w2", 17, t0.Add(30*time.Second)), true},
	}
	for _, w := range writes {
		if err := l.Append(w.ev, w.commit); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, events, err := s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(events) != len(writes) {
		t.Fatalf("replayed %d events, want %d", len(events), len(writes))
	}
	for i, w := range writes {
		if events[i] != w.ev {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], w.ev)
		}
	}
	live := LiveLeases(events, t0)
	if len(live) != 1 || live[0].Lease != "l2" || live[0].From != 17 {
		t.Fatalf("live = %+v, want the l2 re-grant at from=17", live)
	}
}

func TestLeaseLogTruncatesTornTail(t *testing.T) {
	s := leaseStore(t)
	l, _, err := s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0).UTC()
	if err := l.Append(grantAt("l1", "s000001", 0, "w1", 0, t0.Add(time.Minute)), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(LeaseEvent{Event: LeaseExpire, Lease: "l1", Job: "s000001", Cell: 0}, true); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), leaseLogName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the expire record mid-line, as a crash during the write would.
	torn := raw[:len(raw)-9]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, events, err := s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Event != LeaseGrant {
		t.Fatalf("torn replay = %+v, want just the grant", events)
	}
	// The torn tail is truncated: the next append lands on a clean line.
	if err := l2.Append(LeaseEvent{Event: LeaseComplete, Lease: "l1", Job: "s000001", Cell: 0}, true); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, events, err = s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Event != LeaseComplete {
		t.Fatalf("post-truncation replay = %+v", events)
	}
	if live := LiveLeases(events, t0); len(live) != 0 {
		t.Fatalf("live after complete = %+v, want none", live)
	}
}

// testdata/leases.log was written by the lease log of commit f825652,
// which had its own bufio writer; the log now appends through Journal.
// The file format is pinned: the file folds to the same live leases,
// and appending its events (renews buffered, the rest committed) through
// today's writer reproduces it byte for byte. Never regenerate it.
func TestLeaseLogReadsOldFile(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", leaseLogName))
	if err != nil {
		t.Fatal(err)
	}
	s := leaseStore(t)
	if err := os.WriteFile(filepath.Join(s.Dir(), leaseLogName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	l, events, err := s.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 12 {
		t.Fatalf("replayed %d events, want 12", len(events))
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	want := []LeaseEvent{
		{Event: LeaseGrant, Lease: "l1", Job: "s000001", Cell: 0, Worker: "w1", SpecHash: "9f1c0a", Expires: t0.Add(40 * time.Second)},
		{Event: LeaseGrant, Lease: "l4", Job: "c000002", Cell: 0, Worker: "w2", From: 17, SpecHash: "d03e77", Expires: t0.Add(70 * time.Second)},
	}
	live := LiveLeases(events, t0.Add(20*time.Second))
	if len(live) != len(want) {
		t.Fatalf("live = %+v, want %+v", live, want)
	}
	for i := range want {
		if !live[i].Expires.Equal(want[i].Expires) {
			t.Fatalf("live[%d] expires %v, want %v", i, live[i].Expires, want[i].Expires)
		}
		live[i].Expires = want[i].Expires
		if live[i] != want[i] {
			t.Fatalf("live[%d] = %+v, want %+v", i, live[i], want[i])
		}
	}

	fresh := leaseStore(t)
	l, _, err = fresh.OpenLeaseLog()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := l.Append(ev, ev.Event != LeaseRenew); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh.Dir(), leaseLogName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("rewritten lease log differs from testdata:\n%s\nwant:\n%s", got, old)
	}
}

func TestLiveLeasesDropExpired(t *testing.T) {
	t0 := time.Unix(1000, 0).UTC()
	events := []LeaseEvent{
		grantAt("l1", "s000001", 0, "w1", 0, t0.Add(time.Second)),
		grantAt("l2", "s000001", 1, "w2", 0, t0.Add(time.Hour)),
	}
	live := LiveLeases(events, t0.Add(time.Minute))
	if len(live) != 1 || live[0].Lease != "l2" {
		t.Fatalf("live = %+v, want only the unexpired l2", live)
	}
}

func TestLiveLeasesRenewExtendsOnlyHolder(t *testing.T) {
	t0 := time.Unix(1000, 0).UTC()
	events := []LeaseEvent{
		grantAt("l1", "s000001", 0, "w1", 0, t0.Add(time.Second)),
		// A stale renew from a lease that no longer holds the cell must
		// not resurrect or extend anything.
		{Event: LeaseRenew, Lease: "l0", Job: "s000001", Cell: 0, Expires: t0.Add(time.Hour)},
	}
	if live := LiveLeases(events, t0.Add(time.Minute)); len(live) != 0 {
		t.Fatalf("stale renew extended the cell: %+v", live)
	}
	events = append(events, LeaseEvent{Event: LeaseRenew, Lease: "l1", Job: "s000001", Cell: 0, Expires: t0.Add(time.Hour)})
	if live := LiveLeases(events, t0.Add(time.Minute)); len(live) != 1 || live[0].Lease != "l1" {
		t.Fatalf("holder renew lost: %+v", live)
	}
}

// FuzzLeaseRecover pins the lease-recovery safety property: scanning
// and folding ANY byte string — truncated logs, interleaved garbage,
// duplicated grants — never yields two live leases for one (job, cell),
// never invents a lease that was not granted, and never makes the scan
// panic or allocate past the line bound.
func FuzzLeaseRecover(f *testing.F) {
	t0 := time.Unix(1000, 0).UTC()
	var buf bytes.Buffer
	evs := []LeaseEvent{
		grantAt("l1", "s000001", 0, "w1", 0, t0.Add(time.Minute)),
		{Event: LeaseRenew, Lease: "l1", Job: "s000001", Cell: 0, Worker: "w1", Expires: t0.Add(2 * time.Minute)},
		{Event: LeaseExpire, Lease: "l1", Job: "s000001", Cell: 0, Worker: "w1"},
		grantAt("l2", "s000001", 0, "w2", 9, t0.Add(3*time.Minute)),
		grantAt("l3", "s000001", 1, "w1", 0, t0.Add(3*time.Minute)),
		{Event: LeaseComplete, Lease: "l2", Job: "s000001", Cell: 0, Worker: "w2"},
	}
	for _, ev := range evs {
		line, _ := json.Marshal(ev)
		buf.Write(line)
		buf.WriteByte('\n')
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, 17, len(full) / 2, len(full) - 1, len(full)} {
		f.Add(full[:cut])
	}
	f.Add([]byte("{\"event\":\"grant\",\"lease\":\"l1\",\"job\":\"j\",\"cell\":0}\n{\"event\":\"grant\",\"lease\":\"l2\",\"job\":\"j\",\"cell\":0}\n"))
	f.Add([]byte("not json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		events, off, err := ScanLeaseEvents(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return // oversized line: rejected wholesale, never replayed
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("clean offset %d outside input of %d bytes", off, len(data))
		}
		// The clean prefix re-scans to the same events (truncation is
		// idempotent, so a crash between truncate and reopen is safe).
		again, off2, err := ScanLeaseEvents(bufio.NewReader(bytes.NewReader(data[:off])))
		if err != nil || off2 != off || len(again) != len(events) {
			t.Fatalf("rescan of clean prefix diverged: %d/%d events, off %d/%d, err %v",
				len(again), len(events), off2, off, err)
		}
		granted := make(map[string]bool)
		for _, ev := range events {
			if ev.Event == LeaseGrant {
				granted[fmt.Sprintf("%s/%d/%s", ev.Job, ev.Cell, ev.Lease)] = true
			}
		}
		live := LiveLeases(events, t0)
		cells := make(map[string]string)
		for _, ev := range live {
			key := fmt.Sprintf("%s/%d", ev.Job, ev.Cell)
			if holder, dup := cells[key]; dup {
				t.Fatalf("double grant survived recovery: cell %s held by %s and %s", key, holder, ev.Lease)
			}
			cells[key] = ev.Lease
			if !granted[key+"/"+ev.Lease] {
				t.Fatalf("live lease %s on cell %s was never granted", ev.Lease, key)
			}
			if !t0.Before(ev.Expires) {
				t.Fatalf("expired lease %s reported live", ev.Lease)
			}
		}
	})
}
