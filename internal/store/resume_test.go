package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestResumeKeepsCommittedPrefix pins the resume contract: Resume on an
// interrupted journal with a torn final line keeps every committed
// record, truncates only the torn tail, and returns an append handle
// that continues the stream exactly where the prefix ends.
func TestResumeKeepsCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000010")
	var lines [][]byte
	for k := 0; k < 5; k++ {
		lines = append(lines, record(t, j, k, 20+k))
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: a torn final line follows the committed prefix.
	f, err := os.OpenFile(filepath.Join(dir, "c000010"+ext), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":5,"rou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := recoverOne(t, s, "c000010")
	if rec.Err != nil || rec.Terminal != nil || rec.Results != 5 {
		t.Fatalf("interrupted journal scans as %+v (err %v), want 5 results", rec, rec.Err)
	}
	j2, err := s.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The torn tail is gone: appending continues the stream cleanly and
	// the finished journal replays prefix + tail as one unbroken section.
	lines = append(lines, record(t, j2, 5, 25))
	if err := j2.Finish(Terminal{State: "done", Completed: 6}); err != nil {
		t.Fatal(err)
	}
	it, err := s.Results("c000010")
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		if !bytes.Equal(it.Line(), lines[i]) {
			t.Fatalf("line %d: %s != %s", i, it.Line(), lines[i])
		}
		i++
	}
	if it.Err() != nil || i != 6 {
		t.Fatalf("replayed %d lines, err %v", i, it.Err())
	}
	rec = recoverOne(t, s, "c000010")
	if rec.Err != nil || rec.Terminal == nil || rec.Results != 6 {
		t.Fatalf("after resume: %+v (err %v)", rec, rec.Err)
	}
}

// TestResumeCleanBoundary covers the no-torn-tail shape: a journal
// closed exactly at a commit boundary resumes with zero truncation.
func TestResumeCleanBoundary(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000011")
	record(t, j, 0, 3)
	record(t, j, 1, 4)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Resume(recoverOne(t, s, "c000011"))
	if err != nil {
		t.Fatal(err)
	}
	record(t, j2, 2, 5)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := recoverOne(t, s, "c000011"); rec.Err != nil || rec.Results != 3 {
		t.Fatalf("resumed journal rescans as %+v (err %v), want 3 results", rec, rec.Err)
	}
}

// TestResumeRejectsFinishedJournal: a sealed journal is never resumed,
// and neither is a Recovered that Recover did not produce.
func TestResumeRejectsFinishedJournal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000012")
	record(t, j, 0, 3)
	if err := j.Finish(Terminal{State: "done", Completed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(recoverOne(t, s, "c000012")); err == nil {
		t.Fatal("Resume accepted a finished journal")
	}
	if _, err := s.Resume(Recovered{Header: Header{ID: "c000012"}}); err == nil {
		t.Fatal("Resume accepted a journal Recover never scanned")
	}
	// The finished journal is untouched by the failed resumes.
	rec := recoverOne(t, s, "c000012")
	if rec.Err != nil || rec.Terminal == nil || rec.Results != 1 {
		t.Fatalf("finished journal damaged: %+v (err %v)", rec, rec.Err)
	}
}

// TestFailedFinishLeavesResumableJournal pins what a failed seal leaves
// behind: Finish reports the failure and releases the journal, Recover
// then finds the journal unsealed with its last committed prefix, and
// resuming it continues that prefix.
func TestFailedFinishLeavesResumableJournal(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000016")
	record(t, j, 0, 3)
	record(t, j, 1, 4)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	record(t, j, 2, 5) // buffered, never committed
	j.f.Close()        // the file goes away under the journal
	if err := j.Finish(Terminal{State: "done", Completed: 3}); err == nil {
		t.Fatal("Finish on a closed file reported success")
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close after a failed Finish cleared the error")
	}
	rec := recoverOne(t, s, "c000016")
	if rec.Err != nil || rec.Terminal != nil || rec.Results != 2 {
		t.Fatalf("after a failed seal the journal scans as %+v (err %v), want unsealed with 2 results", rec, rec.Err)
	}
	j2, err := s.Resume(rec)
	if err != nil {
		t.Fatal(err)
	}
	record(t, j2, 2, 5)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if rec := recoverOne(t, s, "c000016"); rec.Err != nil || rec.Terminal != nil || rec.Results != 3 {
		t.Fatalf("resumed journal rescans as %+v (err %v), want 3 results", rec, rec.Err)
	}
}

// TestAppendRejectsOversizedRecord pins the write-side line bound: an
// oversized record fails without reaching the file, and the failure is
// sticky like every other journal error.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000013")
	if err := j.Append(bytes.Repeat([]byte("x"), maxLine)); err == nil {
		t.Fatal("oversized record accepted")
	}
	if err := j.Append([]byte(`{"trial":0,"rounds":1}`)); err == nil {
		t.Fatal("journal error not sticky after oversized append")
	}
	// The journal on disk still holds only its header.
	if err := j.Close(); err == nil {
		t.Fatal("close cleared the sticky error")
	}
	rec := recoverOne(t, s, "c000013")
	if rec.Err != nil || rec.Results != 0 {
		t.Fatalf("oversized append leaked onto disk: %+v (err %v)", rec, rec.Err)
	}
}

// TestScanRejectsOversizedLine pins the read-side bound: a journal line
// past maxLine fails the recovery scan (Recovered.Err) instead of being
// buffered whole, so the journal cannot be resumed and the caller
// quarantines the file.
func TestScanRejectsOversizedLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000014")
	record(t, j, 0, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "c000014"+ext), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	huge := append(bytes.Repeat([]byte("y"), maxLine+16), '\n')
	if _, err := f.Write(huge); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := recoverOne(t, s, "c000014")
	if rec.Err == nil {
		t.Fatalf("oversized line not flagged: %+v", rec)
	}
	if _, err := s.Resume(rec); err == nil {
		t.Fatal("Resume accepted a journal with an oversized line")
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c000015"+ext), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("c000015"); err != nil {
		t.Fatal(err)
	}
	// The scan no longer sees it; the renamed file remains for inspection.
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("quarantined journal still scanned: %d journals", len(recs))
	}
	if _, err := os.Stat(filepath.Join(dir, "c000015"+ext+corruptExt)); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
}

// FuzzRecoverScan feeds arbitrary (mostly truncated-journal) bytes to
// the recovery scan: Recover must classify without panicking or
// unbounded allocation, and any journal it reports as scannable and
// unsealed must resume from that one scan — Resume reads nothing more —
// so that appending one record rescans as the scan's count plus one.
func FuzzRecoverScan(f *testing.F) {
	hdr, err := json.Marshal(Header{
		Journal: Magic, Version: Version, Kind: KindCampaign, ID: "c000001",
		Created: time.Unix(0, 0).UTC(), Spec: json.RawMessage(`{"trials":4}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(hdr)
	buf.WriteByte('\n')
	for k := 0; k < 4; k++ {
		line, _ := json.Marshal(map[string]int{"trial": k, "rounds": 7 + k})
		buf.Write(line)
		buf.WriteByte('\n')
	}
	term, _ := json.Marshal(Terminal{JournalEnd: true, State: "done", Completed: 4})
	full := append(append([]byte{}, buf.Bytes()...), append(term, '\n')...)
	for _, cut := range []int{0, 1, len(hdr), len(hdr) + 1, len(hdr) + 8, buf.Len() - 1, buf.Len(), len(full) - 1, len(full)} {
		f.Add(full[:cut])
	}
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "c000001"+ext), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := s.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("scanned %d journals, want 1", len(recs))
		}
		rec := recs[0]
		if rec.Err != nil || rec.Terminal != nil {
			return // unusable or finished: nothing to resume
		}
		j, err := s.Resume(rec)
		if err != nil {
			t.Fatalf("scan succeeded but resume failed: %v", err)
		}
		if err := j.Append([]byte(`{"trial":99,"rounds":1}`)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if rec2 := recoverOne(t, s, "c000001"); rec2.Err != nil || rec2.Terminal != nil || rec2.Results != rec.Results+1 {
			t.Fatalf("appended journal rescans as %+v (err %v), want %d results", rec2, rec2.Err, rec.Results+1)
		}
	})
}
