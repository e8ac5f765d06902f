package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testHeader(id string) Header {
	return Header{
		Kind:    KindCampaign,
		ID:      id,
		Created: time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC),
		Spec:    json.RawMessage(`{"graph":"cycle:8","process":"cobra","branch":2,"trials":3,"seed":1}`),
	}
}

func mustCreate(t *testing.T, s *Store, id string) *Journal {
	t.Helper()
	j, err := s.Create(testHeader(id))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func record(t *testing.T, j *Journal, trial, rounds int) []byte {
	t.Helper()
	line, err := json.Marshal(map[string]int{"trial": trial, "rounds": rounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(line); err != nil {
		t.Fatal(err)
	}
	return line
}

func recoverOne(t *testing.T, s *Store, id string) Recovered {
	t.Helper()
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Header.ID == id {
			return rec
		}
	}
	t.Fatalf("journal %s not recovered (have %d journals)", id, len(recs))
	return Recovered{}
}

func TestJournalLifecycle(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000001")
	var lines [][]byte
	for k := 0; k < 3; k++ {
		lines = append(lines, record(t, j, k, 10+k))
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	term := Terminal{State: "done", Completed: 3, Finished: time.Now().UTC(), Final: json.RawMessage(`{"completed":3}`)}
	if err := j.Finish(term); err != nil {
		t.Fatal(err)
	}

	rec := recoverOne(t, s, "c000001")
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.Header.Kind != KindCampaign || rec.Header.Journal != Magic || rec.Header.Version != Version {
		t.Fatalf("header %+v", rec.Header)
	}
	if rec.Terminal == nil || rec.Terminal.State != "done" || rec.Terminal.Completed != 3 {
		t.Fatalf("terminal %+v", rec.Terminal)
	}
	if rec.Results != 3 {
		t.Fatalf("recovered %d results, want 3", rec.Results)
	}

	// The result section replays the appended lines exactly, terminal
	// excluded.
	it, err := s.Results("c000001")
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		if string(it.Line()) != string(lines[i]) {
			t.Fatalf("line %d: %s != %s", i, it.Line(), lines[i])
		}
		i++
	}
	if it.Err() != nil || i != 3 {
		t.Fatalf("iterated %d lines, err %v", i, it.Err())
	}

	// Duplicate ids are a bug, not an overwrite.
	if _, err := s.Create(testHeader("c000001")); err == nil {
		t.Fatal("duplicate journal created")
	}

	// A nil journal persists nothing and never fails.
	var none *Journal
	for _, err := range []error{none.Append(lines[0]), none.Record(term), none.Commit(), none.Finish(term), none.Close()} {
		if err != nil {
			t.Fatalf("nil journal: %v", err)
		}
	}
}

func TestJournalInterruptedAndReset(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000002")
	record(t, j, 0, 7)
	record(t, j, 1, 9)
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil { // interrupted: no terminal record
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn final line must not count as a
	// committed result nor corrupt recovery.
	f, err := os.OpenFile(filepath.Join(dir, "c000002"+ext), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"trial":2,"rou`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec := recoverOne(t, s, "c000002")
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.Terminal != nil {
		t.Fatalf("interrupted journal has terminal %+v", rec.Terminal)
	}
	if rec.Results != 2 {
		t.Fatalf("recovered %d results (torn tail must not count), want 2", rec.Results)
	}

	// Reset truncates to the header for the re-run; the re-run journal
	// finishes normally.
	j2, err := s.Reset("c000002")
	if err != nil {
		t.Fatal(err)
	}
	record(t, j2, 0, 7)
	if err := j2.Finish(Terminal{State: "done", Completed: 1}); err != nil {
		t.Fatal(err)
	}
	rec = recoverOne(t, s, "c000002")
	if rec.Err != nil || rec.Terminal == nil || rec.Results != 1 {
		t.Fatalf("after reset: %+v (err %v)", rec, rec.Err)
	}
}

func TestRecoverSkipsCorruptAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000003")
	if err := j.Finish(Terminal{State: "done"}); err != nil {
		t.Fatal(err)
	}
	// A garbage journal reports Err; a foreign file is ignored outright.
	if err := os.WriteFile(filepath.Join(dir, "c000004"+ext), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d journals, want 2", len(recs))
	}
	good, bad := 0, 0
	for _, rec := range recs {
		if rec.Err != nil {
			bad++
		} else {
			good++
		}
	}
	if good != 1 || bad != 1 {
		t.Fatalf("good=%d bad=%d", good, bad)
	}
}

func TestRemoveAndInvalidIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := mustCreate(t, s, "c000005")
	if err := j.Finish(Terminal{State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("c000005"); err != nil {
		t.Fatal(err)
	}
	if recs, _ := s.Recover(); len(recs) != 0 {
		t.Fatalf("journal survived Remove: %d", len(recs))
	}
	for _, id := range []string{"", "../evil", "a/b", "x y"} {
		if _, err := s.Create(testHeader(id)); err == nil {
			t.Fatalf("invalid id %q accepted by Create", id)
		}
		if _, err := s.Results(id); err == nil {
			t.Fatalf("invalid id %q accepted by Results", id)
		}
	}
}
