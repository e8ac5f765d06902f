// Package store is cobrad's durable job store: one append-only NDJSON
// journal per submitted job, written so that a crashed or restarted
// server can recover every job bit for bit.
//
// # Journal format
//
// A journal is a single file <dir>/<id>.ndjson of newline-delimited JSON
// records:
//
//	line 1     Header   {"journal":"cobrad","version":1,"kind":...,"id":...,"created":...,"spec":{...}}
//	lines 2..  results  one record per committed trial, exactly the bytes
//	                    the service streams to results clients
//	last line  Terminal {"journal_end":true,"state":"done",...}  (only once
//	                    the job reached a terminal state)
//
// The result section is byte-identical to the NDJSON a client receives
// from GET .../results: each record is json.Marshal output plus a
// newline, the same encoding json.Encoder uses on the wire. Serving a
// finished job's results therefore means copying journal lines verbatim.
//
// # Durability contract
//
// The header is fsynced before the submission is acknowledged, so an
// accepted job is never forgotten. Result records are buffered and
// fsynced at commit boundaries: Append commits every commitEvery
// records, and the service calls Journal.Commit at each sweep cell
// boundary and at a preemption checkpoint. The terminal record is
// fsynced before the journal closes, so a finished job's results and
// aggregate survive any later crash. Between commit boundaries a crash
// may lose buffered result lines — harmless, because the complete lines
// that did reach disk are a committed prefix of the result stream, and
// the campaign determinism contract (see internal/batch) guarantees the
// job's re-run reproduces exactly that prefix before computing the tail.
//
// Recover is the recovery entry point. Its one scan classifies every
// journal and, for an unsealed one, records where the committed prefix
// ends; Resume then truncates the file there (dropping a torn final
// line) and returns an append handle without reading the file again, so
// recovery replays the prefix from disk and re-executes only the
// uncommitted tail. Reset is the fallback when the prefix is unusable.
//
// Every journal line is bounded by maxLine on both sides: Append rejects
// oversized records with a sticky error, and the recovery scan fails a
// journal whose lines exceed the bound instead of buffering them — a
// corrupt or adversarial journal cannot make recovery allocate without
// limit.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/repro/cobra/internal/obs"
)

const (
	// Magic is the Header.Journal tag identifying cobrad journals.
	Magic = "cobrad"
	// Version is the journal format version written by this package.
	Version = 1
	// ext is the journal filename extension.
	ext = ".ndjson"
	// corruptExt is appended to a quarantined journal's filename; the
	// recovery scan skips quarantined files (they no longer end in ext).
	corruptExt = ".corrupt"
	// maxLine bounds a single journal line, enforced on both write
	// (Append rejects longer records) and read (readLine fails instead of
	// buffering more) — result records are a few hundred bytes and
	// headers carry a spec, both well under this.
	maxLine = 1 << 20
)

// errLineTooLong marks a journal line exceeding maxLine: the scan stops
// buffering at the bound, so a corrupt or adversarial journal cannot
// exhaust memory during recovery.
var errLineTooLong = errors.New("store: journal line exceeds the line limit")

// Kind discriminates the job type a journal belongs to.
type Kind string

const (
	// KindCampaign marks a single-campaign job (batch.Spec).
	KindCampaign Kind = "campaign"
	// KindSweep marks a parameter-sweep job (batch.SweepSpec).
	KindSweep Kind = "sweep"
)

// Header is a journal's first line: everything needed to re-create the
// job it records. Spec stays raw JSON here — the batch layer decodes it
// by Kind, keeping this package free of campaign types.
type Header struct {
	Journal string          `json:"journal"`
	Version int             `json:"version"`
	Kind    Kind            `json:"kind"`
	ID      string          `json:"id"`
	Created time.Time       `json:"created"`
	Spec    json.RawMessage `json:"spec"`
}

// Terminal is a journal's last line, present only once the job reached a
// terminal state. State is the job's terminal JobState ("done",
// "failed", "expired"); Final carries the job's final aggregate (or
// per-cell summaries for sweeps) as raw JSON.
type Terminal struct {
	JournalEnd bool            `json:"journal_end"`
	State      string          `json:"state"`
	Completed  int             `json:"completed"`
	Finished   time.Time       `json:"finished"`
	Final      json.RawMessage `json:"final,omitempty"`
	Error      string          `json:"error,omitempty"`
}

// Store is a directory of job journals. Methods are safe for concurrent
// use on distinct job ids; a single job's journal has one writer (the
// campaign worker running it).
type Store struct {
	dir     string
	metrics atomic.Pointer[Metrics] // nil until SetMetrics; see instruments
}

// Metrics is the store's observe-only instrument set. Every field is
// optional (the obs instruments are nil-receiver safe), so a Store works
// identically with none, some, or all of them attached — instrumentation
// never changes what reaches disk or when.
type Metrics struct {
	// Appends counts journal lines appended (headers, results, terminals).
	Appends *obs.Counter
	// FsyncSeconds observes the latency of each journal fsync (commit
	// boundaries, terminal seals, and close-time flushes).
	FsyncSeconds *obs.Histogram
	// Quarantines counts journals renamed aside as unusable.
	Quarantines *obs.Counter
}

// SetMetrics attaches instruments to the store. Every journal reads them
// at each append and fsync, so one opened earlier reports to them from
// then on: cobrad's fleet coordinator opens the lease log before the
// server attaches the job journals' instruments. It is safe to call
// while journals are being written; the cobrad server calls it before
// recovery so replay I/O is observed too.
func (s *Store) SetMetrics(m Metrics) { s.metrics.Store(&m) }

// noMetrics is the instrument set of a store without SetMetrics: every
// instrument nil, so every observation is a no-op.
var noMetrics Metrics

// instruments returns the store's current instrument set.
func (s *Store) instruments() *Metrics {
	if m := s.metrics.Load(); m != nil {
		return m
	}
	return &noMetrics
}

// Open prepares (creating if needed) the journal directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the journal directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(id string) string { return filepath.Join(s.dir, id+ext) }

// validID guards the filename namespace (ids are path components).
func validID(id string) bool {
	if id == "" {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// Journal is an open append handle on one job's journal file. A job
// holds one from Create (or Resume/Reset at recovery) until Finish seals
// it. A nil *Journal persists nothing: every method is a no-op returning
// nil, so a server without a store runs the same code.
type Journal struct {
	f       *os.File
	w       *bufio.Writer
	s       *Store // whose instruments observe appends and fsyncs
	err     error  // first failure; later writes are no-ops
	pending int    // records appended since the last commit
	closed  bool
}

// commitEvery is the journal's commit cadence: Append commits once this
// many records are pending. Commits define a job's resume point, so the
// cadence bounds how much work an ill-timed crash can force a recovered
// job to recompute — never correctness, because the committed prefix is
// byte-identical to what the re-run would produce.
const commitEvery = 256

// sync fsyncs the journal file, timing the call.
func (j *Journal) sync() error {
	start := time.Now()
	err := j.f.Sync()
	j.s.instruments().FsyncSeconds.Observe(time.Since(start).Seconds())
	return err
}

// Create starts a new journal for a job: it writes and fsyncs the header
// line, so the job is durable before its submission is acknowledged.
// The id must be new (an existing journal is an error, not overwritten).
func (s *Store) Create(h Header) (*Journal, error) {
	if !validID(h.ID) {
		return nil, fmt.Errorf("store: invalid job id %q", h.ID)
	}
	h.Journal, h.Version = Magic, Version
	line, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("store: encode header: %w", err)
	}
	f, err := os.OpenFile(s.path(h.ID), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	j := s.appendHandle(f)
	if err := j.Append(line); err == nil {
		err = j.Commit()
	}
	if j.err != nil {
		f.Close()
		os.Remove(s.path(h.ID))
		return nil, j.err
	}
	return j, nil
}

// Append buffers one NDJSON record (json.Marshal output, no trailing
// newline — Append adds it) and commits once commitEvery records are
// pending. Records must fit the journal line limit: an oversized record
// fails without being written, so the scan-side bound never encounters
// a line this package produced. Errors are sticky: after the first
// failure every later Append/Record/Commit/Finish returns it without
// writing.
func (j *Journal) Append(record []byte) error {
	if j == nil {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	if len(record) >= maxLine {
		j.err = fmt.Errorf("store: append: record of %d bytes exceeds the %d-byte journal line limit", len(record), maxLine)
		return j.err
	}
	if _, err := j.w.Write(record); err != nil {
		j.err = fmt.Errorf("store: append: %w", err)
		return j.err
	}
	if err := j.w.WriteByte('\n'); err != nil {
		j.err = fmt.Errorf("store: append: %w", err)
		return j.err
	}
	j.s.instruments().Appends.Inc()
	j.pending++
	if j.pending >= commitEvery {
		return j.Commit()
	}
	return nil
}

// Record appends v's JSON encoding as one record: json.Marshal output,
// byte-identical to the lines json.Encoder writes on the wire. An
// encoding failure is sticky like a write failure.
func (j *Journal) Record(v any) error {
	if j == nil {
		return nil
	}
	if j.err != nil {
		return j.err
	}
	line, err := json.Marshal(v)
	if err != nil {
		j.err = fmt.Errorf("store: encode: %w", err)
		return j.err
	}
	return j.Append(line)
}

// Commit flushes buffered records and fsyncs the file — a commit
// boundary: everything appended so far survives a crash. With nothing
// pending it does nothing.
func (j *Journal) Commit() error {
	if j == nil {
		return nil
	}
	if j.err != nil || j.pending == 0 {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("store: flush: %w", err)
		return j.err
	}
	if err := j.sync(); err != nil {
		j.err = fmt.Errorf("store: fsync: %w", err)
		return j.err
	}
	j.pending = 0
	return nil
}

// Finish appends the terminal record, commits, and closes the journal:
// the job's terminal state and final aggregate are durable when Finish
// returns nil. A finished journal is complete — Recover restores it
// without re-running the job. Finish releases the file on every outcome
// and returns the journal's first error, an earlier failed append's
// included; the journal is then unsealed, and Recover reports its
// committed prefix for Resume.
func (j *Journal) Finish(t Terminal) error {
	if j == nil {
		return nil
	}
	t.JournalEnd = true
	j.Record(t) // a failure is sticky: Close returns it
	return j.Close()
}

// Close commits and closes the journal without a terminal record — the
// shutdown path for interrupted jobs: Recover sees an unsealed journal
// and the job resumes from its committed prefix. It closes the file
// once and returns the journal's first error.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.Commit() // a failure is sticky: returned below
	if !j.closed {
		j.closed = true
		if err := j.f.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("store: close: %w", err)
		}
	}
	return j.err
}

// Resume reopens an unsealed journal that Recover scanned: it truncates
// the file where the scan found the committed prefix ending — dropping a
// torn final line left by a crash mid-append — and returns an append
// handle positioned there. It reads nothing; the caller replays the
// rec.Results committed records (Results) and re-executes only the tail.
// A journal the scan found sealed or unusable cannot be resumed.
func (s *Store) Resume(rec Recovered) (*Journal, error) {
	if rec.Err != nil || rec.Terminal != nil || rec.end == 0 {
		return nil, fmt.Errorf("store: resume %s: not an unsealed journal scanned by Recover", rec.Header.ID)
	}
	return s.reopen(rec.Header.ID, "resume", rec.end)
}

// Reset truncates a journal back to its header, returning an append
// handle positioned for the job's re-run from trial 0. It is the
// fallback when the committed prefix is unusable; a crash during or
// after Reset leaves the journal unsealed, so the job is simply requeued
// again on the next recovery.
func (s *Store) Reset(id string) (*Journal, error) {
	return s.reopen(id, "reset", -1)
}

// reopen opens a journal for appending at byte offset off, truncating
// everything past it; a negative off means just past the header, which
// is read and checked first.
func (s *Store) reopen(id, op string, off int64) (*Journal, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid job id %q", id)
	}
	f, err := os.OpenFile(s.path(id), os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if off < 0 {
		_, off, err = readHeader(bufio.NewReader(f), id)
	}
	if err == nil {
		err = truncateAt(f, off)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %s %s: %w", op, id, err)
	}
	return s.appendHandle(f), nil
}

// truncateAt cuts f back to its first off bytes, fsyncs the cut and
// positions f there for appending: the shared tail of reopening a
// journal or the lease log after a scan found where its committed
// prefix ends.
func truncateAt(f *os.File, off int64) error {
	if err := f.Truncate(off); err != nil {
		return err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	return f.Sync()
}

// appendHandle wraps an open file positioned for appending as a Journal
// reporting to the store's instruments.
func (s *Store) appendHandle(f *os.File) *Journal {
	return &Journal{f: f, w: bufio.NewWriterSize(f, 64<<10), s: s}
}

// Quarantine renames an unusable journal to <id>.ndjson.corrupt: later
// recovery scans skip it (and stop paying to parse it), while the file
// stays on disk for the operator to inspect or delete.
func (s *Store) Quarantine(id string) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	if err := os.Rename(s.path(id), s.path(id)+corruptExt); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.instruments().Quarantines.Inc()
	return nil
}

// Remove deletes a job's journal (used to roll back a journal whose
// submission was rejected after the header was written).
func (s *Store) Remove(id string) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid job id %q", id)
	}
	if err := os.Remove(s.path(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Recovered is one journal's parsed state: its header, its terminal
// record when the job finished (nil for interrupted/queued jobs), and
// the count of complete result lines on disk. Err is set when the
// journal is unusable (unreadable or mismatched header) — the caller
// should skip it rather than fail recovery outright.
type Recovered struct {
	Header   Header
	Terminal *Terminal
	Results  int
	Err      error
	end      int64 // byte offset where the committed prefix ends (for Resume)
}

// Recover parses every journal in the directory, in id order. A torn
// final line (crash mid-append) is ignored: the affected journal simply
// reports one fewer committed result, or no terminal record. An unsealed
// journal's Recovered also records where its committed prefix ends, for
// Resume.
func (s *Store) Recover() ([]Recovered, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []Recovered
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		id := strings.TrimSuffix(name, ext)
		rec := s.scan(id)
		out = append(out, rec)
	}
	return out, nil
}

// scan reads one journal, classifying its lines.
func (s *Store) scan(id string) Recovered {
	rec := Recovered{Header: Header{ID: id}}
	f, err := os.Open(s.path(id))
	if err != nil {
		rec.Err = fmt.Errorf("store: %w", err)
		return rec
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)

	h, end, err := readHeader(br, id)
	if err != nil {
		rec.Err = fmt.Errorf("store: journal %s: %w", id, err)
		return rec
	}
	rec.Header, rec.end = h, end

	for {
		line, err := readLine(br)
		if err == errLineTooLong {
			// A line past the bound is corruption, not a torn tail: report
			// it so the caller can quarantine the file instead of treating
			// the truncated scan as a committed prefix.
			rec.Err = fmt.Errorf("store: journal %s: line exceeds %d bytes", id, maxLine)
			return rec
		}
		if err != nil {
			// io.EOF with no data, or a torn final line: either way the
			// committed journal ends here.
			return rec
		}
		if t, ok := terminalRecord(line); ok {
			rec.Terminal = &t
			return rec
		}
		rec.Results++
		rec.end += int64(len(line)) + 1
	}
}

// readHeader reads and checks a journal's first line, returning the
// header and the byte offset just past it.
func readHeader(br *bufio.Reader, id string) (Header, int64, error) {
	line, err := readLine(br)
	if err != nil {
		return Header{}, 0, fmt.Errorf("unreadable header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil || h.Journal != Magic || h.ID != id || h.Version > Version {
		return Header{}, 0, fmt.Errorf("bad header %.80q", line)
	}
	return h, int64(len(line)) + 1, nil
}

// readLine returns the next complete (newline-terminated) line without
// its newline; a partial line at EOF is reported as an error so torn
// tails are never mistaken for committed records. Lines longer than
// maxLine fail with errLineTooLong before being buffered whole — unlike
// bufio.ReadBytes, which allocates without bound — so scanning a corrupt
// journal cannot OOM recovery. The returned slice may alias the reader's
// buffer (capacity capped, so appends copy) and is valid until the next
// read.
func readLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if len(line)+len(chunk) > maxLine {
			return nil, errLineTooLong
		}
		if line == nil && err == nil {
			// Whole line inside the buffer: no copy needed.
			return chunk[: len(chunk)-1 : len(chunk)-1], nil
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line[:len(line)-1], nil
		case bufio.ErrBufferFull:
			continue // line spans buffer fills; keep accumulating
		default:
			return nil, err // io.EOF (torn tail) or a real I/O fault
		}
	}
}

// terminalRecord reports whether a journal line is the terminal record.
// Result records never carry the "journal_end" key, so a successful
// decode with JournalEnd set identifies the terminal unambiguously.
func terminalRecord(line []byte) (Terminal, bool) {
	if !bytes.Contains(line, []byte(`"journal_end"`)) {
		return Terminal{}, false
	}
	var t Terminal
	if err := json.Unmarshal(line, &t); err != nil || !t.JournalEnd {
		return Terminal{}, false
	}
	return t, true
}

// Results iterates a journal's committed result lines in order, skipping
// the header and stopping before the terminal record (and before any
// torn final line). Lines are returned without their newline, exactly as
// appended — serving them with a newline re-creates the original NDJSON
// stream byte for byte.
type Results struct {
	f    *os.File
	br   *bufio.Reader
	line []byte
	err  error
	done bool
}

// Results opens a journal's result section for reading.
func (s *Store) Results(id string) (*Results, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid job id %q", id)
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	br := bufio.NewReaderSize(f, 64<<10)
	if _, err := readLine(br); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: journal %s: unreadable header: %w", id, err)
	}
	return &Results{f: f, br: br}, nil
}

// Next advances to the next result line, reporting false at the end of
// the result section.
func (r *Results) Next() bool {
	if r.done {
		return false
	}
	line, err := readLine(r.br)
	if err != nil {
		if err != io.EOF {
			// readLine folds a torn tail into io.EOF; anything else is a
			// real fault — an I/O error, or an oversized (corrupt) line.
			r.err = err
		}
		r.done = true
		return false
	}
	if _, ok := terminalRecord(line); ok {
		r.done = true
		return false
	}
	r.line = line
	return true
}

// Line returns the current result line (valid until the next call to
// Next).
func (r *Results) Line() []byte { return r.line }

// Err returns the first I/O error hit while iterating (a clean end of
// section, including a torn tail, is not an error).
func (r *Results) Err() error { return r.err }

// Close releases the underlying file.
func (r *Results) Close() error { return r.f.Close() }
