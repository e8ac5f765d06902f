package batch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/store"
)

// Durability layer of the cobrad service. A Server built with
// NewServerWith journals every accepted job to a Store: the header
// (kind + spec) is durable before the submission is acknowledged, result
// records are appended as trials commit (the same bytes the results
// endpoint streams), and a terminal record seals the journal when the
// job finishes. On startup the server replays the store: finished jobs
// are restored with their aggregates in RAM and their results served
// from disk; interrupted or still-queued jobs are *resumed* — the
// committed journal prefix is replayed into RAM (results, aggregates,
// cell phases) and the job is requeued to execute only the uncommitted
// tail, which the campaign determinism contract makes byte-identical to
// the tail the crash destroyed. Unusable journals are quarantined to
// <id>.ndjson.corrupt rather than silently rescanned forever.

// Store is the pluggable durability layer behind a persistent Server,
// implemented by *store.Store. nil means in-memory only (jobs do not
// survive a restart, and finished results are never evicted from RAM).
type Store interface {
	Create(h store.Header) (*store.Journal, error)
	Reset(id string) (*store.Journal, error)
	ResumeAt(id string) (*store.Journal, int, error)
	Quarantine(id string) error
	Remove(id string) error
	Results(id string) (*store.Results, error)
	Recover() ([]store.Recovered, error)
}

// campaignCommitEvery is the campaign journal's commit boundary: results
// are fsynced every this many records (sweeps additionally commit at
// every cell boundary). Commits define the resume point: recovery keeps
// the fsynced prefix, replays it from disk, and re-executes only the
// trials past it, so the boundary bounds how much work an ill-timed
// crash can force a recovered job to recompute — never correctness,
// because the committed prefix is byte-identical to what the re-run
// would produce (the campaign determinism contract).
const campaignCommitEvery = 256

// journalSink serializes one job's results into its journal. It is used
// only from the single goroutine running the job (plus Close on the
// submit path for drained jobs), so it needs no locking. Errors are
// sticky and silent: a broken journal stops persisting but never fails
// the in-RAM job; the unterminated journal simply means the job is re-run
// on the next recovery.
type journalSink struct {
	j           *store.Journal
	uncommitted int
	broken      bool
}

func newJournalSink(j *store.Journal) *journalSink {
	return &journalSink{j: j}
}

// record appends one result record (json.Marshal of v — byte-identical
// to the json.Encoder lines the results endpoint streams).
func (js *journalSink) record(v any) {
	if js == nil || js.broken {
		return
	}
	line, err := json.Marshal(v)
	if err != nil {
		js.broken = true
		return
	}
	if js.j.Append(line) != nil {
		js.broken = true
		return
	}
	js.uncommitted++
	if js.uncommitted >= campaignCommitEvery {
		js.commitNow()
	}
}

// boundary marks an explicit commit boundary (sweeps call it when the
// committed cell changes).
func (js *journalSink) boundary() {
	if js == nil || js.broken || js.uncommitted == 0 {
		return
	}
	js.commitNow()
}

func (js *journalSink) commitNow() {
	if js.j.Commit() != nil {
		js.broken = true
	}
	js.uncommitted = 0
}

// finish seals the journal with the job's terminal record, reporting
// whether the journal is durably terminal (the job's results may then be
// evicted from RAM and served from disk).
func (js *journalSink) finish(state JobState, completed int, finished time.Time, final any, errMsg string) bool {
	if js == nil {
		return false
	}
	if js.broken {
		js.j.Close()
		return false
	}
	var raw json.RawMessage
	if final != nil {
		var err error
		if raw, err = json.Marshal(final); err != nil {
			js.broken = true
			js.j.Close()
			return false
		}
	}
	err := js.j.Finish(store.Terminal{
		State:     string(state),
		Completed: completed,
		Finished:  finished,
		Final:     raw,
		Error:     errMsg,
	})
	if err != nil {
		js.broken = true
		js.j.Close() // a failed Finish must still release the descriptor
		return false
	}
	return true
}

// interrupt flushes and closes the journal without a terminal record:
// the shutdown path for queued and aborted-mid-run jobs, which recovery
// requeues for a byte-identical re-run.
func (js *journalSink) interrupt() {
	if js == nil {
		return
	}
	js.j.Close()
}

// createJournal opens a journal for a freshly accepted job.
func (s *Server) createJournal(kind store.Kind, id string, spec any, created time.Time) (*journalSink, error) {
	if s.store == nil {
		return nil, nil
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	j, err := s.store.Create(store.Header{Kind: kind, ID: id, Created: created, Spec: raw})
	if err != nil {
		return nil, err
	}
	return newJournalSink(j), nil
}

// recoverJobs replays every journal in the store into the server's job
// tables. It runs from NewServerWith before the campaign workers start
// and before the handler is reachable, so no locks are needed. Journals
// arrive in id order (ids are zero-padded), which reproduces the
// original submission order in listings and gives requeued equal-priority
// jobs their original FIFO order.
func (s *Server) recoverJobs() error {
	recs, err := s.store.Recover()
	if err != nil {
		return err
	}
	// Campaign and sweep ids share one counter, so numeric id order is the
	// true cross-kind submission order — directory order is not (every c*
	// file sorts before any s* file). Requeued equal-priority jobs get
	// their original FIFO sequence from this.
	sort.Slice(recs, func(i, j int) bool {
		return idNumber(recs[i].Header.ID) < idNumber(recs[j].Header.ID)
	})
	maxID := 0
	for _, rec := range recs {
		// Even an unusable journal's id must advance the id counter, or a
		// fresh submission could collide with the file on disk.
		if n := idNumber(rec.Header.ID); n > maxID {
			maxID = n
		}
		if rec.Err != nil {
			// Unusable journal: quarantine it rather than refuse to start —
			// and rather than silently rescanning it on every boot.
			s.quarantine(rec.Header.ID, rec.Err)
			continue
		}
		if err := s.recoverJob(rec); err != nil {
			// One unknown kind, undecodable spec or terminal record must not
			// take the whole store down with it: quarantine the journal,
			// keep serving the healthy jobs (same policy as rec.Err above).
			s.quarantine(rec.Header.ID, err)
		}
	}
	if maxID > s.nextID {
		s.nextID = maxID
	}
	return nil
}

// idNumber extracts the numeric part of a job id ("c000042" → 42);
// 0 for anything unparsable.
func idNumber(id string) int {
	if len(id) < 2 {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

// recoverJob rebuilds one journal's job. A sealed journal restores the
// finished job as it was — results stay on disk. An unterminated one is
// reopened for resumption: the committed prefix is kept (any torn tail
// truncated), replayed into RAM, and the job requeued to compute only the
// tail; a prefix that will not scan falls back to Reset and a
// from-scratch re-run rather than losing the job.
func (s *Server) recoverJob(rec store.Recovered) error {
	spec, plan, err := decodeHeader(rec.Header)
	if err != nil {
		return err
	}
	deadline, err := plan.DeadlineTime()
	if err != nil {
		return fmt.Errorf("%w: journal %s: %v", ErrInput, rec.Header.ID, err)
	}
	job := newJob(rec.Header.ID, rec.Header.Kind, spec, plan)
	s.seq++
	job.seq = s.seq
	job.deadline = deadline
	job.created = rec.Header.Created
	job.queuedAt = time.Now() // admission wait restarts at recovery
	if t := rec.Terminal; t != nil {
		if err := applyTerminal(job, t); err != nil {
			return err
		}
		if job.state == StateDone && len(t.Final) > 0 {
			job.restoreFinal(t.Final)
		} else {
			// A restored failed/expired job never committed its tail; no
			// per-cell phase survives the restart, so mark every cell as one
			// that will never commit.
			for i := range job.cellPhases {
				job.cellPhases[i] = CellFailed
			}
		}
	} else {
		j, n, err := s.store.ResumeAt(job.id)
		if err != nil {
			s.log().Warn("resume scan failed; re-running from scratch",
				"job", job.id, "err", err)
			if j, err = s.store.Reset(job.id); err != nil {
				return err
			}
			n = 0
		}
		job.sink = newJournalSink(j)
		if n > 0 {
			if err := s.replay(job, n); err != nil {
				if err := s.resetForRerun(job, err); err != nil {
					return err
				}
			}
		}
		s.queue.push(job, true)
	}
	s.table(job.kind)[job.id] = job
	s.order = append(s.order, job)
	return nil
}

// replay loads an interrupted job's committed prefix — n result records —
// from its journal into RAM (results, count, per-cell folds, phases), so
// the requeued job resumes at record n instead of recomputing the prefix.
// Records are validated against the flattened (cell, trial) order:
// record i must carry cell i/Trials, trial i%Trials (a campaign's records
// carry no cell, which decodes as cell 0). Replayed records never touch
// the trials-executed counter: only genuinely computed trials count
// there.
func (s *Server) replay(job *Job, n int) error {
	trials := job.sweep.Trials
	if n > len(job.cellSpecs)*trials {
		return fmt.Errorf("journal holds %d results for a %d-trial job", n, len(job.cellSpecs)*trials)
	}
	it, err := s.store.Results(job.id)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		i := len(job.cellResults)
		var r CellResult
		if err := json.Unmarshal(it.Line(), &r); err != nil {
			return fmt.Errorf("undecodable result record %d: %v", i, err)
		}
		if r.Cell != i/trials || r.Trial != i%trials {
			return fmt.Errorf("result record %d carries (cell %d, trial %d), want (%d, %d)",
				i, r.Cell, r.Trial, i/trials, i%trials)
		}
		job.cellResults = append(job.cellResults, r)
		job.cellOnline[r.Cell].Add(float64(r.Rounds))
	}
	if err := it.Err(); err != nil {
		return err
	}
	if len(job.cellResults) != n {
		return fmt.Errorf("journal replay read %d results, resume scan counted %d", len(job.cellResults), n)
	}
	for i := 0; i < n/trials; i++ {
		job.cellPhases[i] = CellDone
	}
	job.completed = n
	job.started = true
	return nil
}

// resetForRerun abandons an unusable committed prefix: the journal is
// truncated back to its header, RAM state cleared, and the job re-runs
// from trial 0 — the pre-resume recovery behavior, kept as the fallback.
func (s *Server) resetForRerun(job *Job, cause error) error {
	s.log().Warn("cannot resume from committed prefix; re-running from scratch",
		"job", job.id, "err", cause)
	job.sink.interrupt()
	job.sink = nil
	j, err := s.store.Reset(job.id)
	if err != nil {
		return err
	}
	job.sink = newJournalSink(j)
	job.cellResults = nil
	job.completed = 0
	job.started = false
	for i := range job.cellOnline {
		job.cellOnline[i] = stats.NewOnline()
		job.cellPhases[i] = CellQueued
	}
	return nil
}

// quarantine sidelines a journal recovery cannot use, logging the cause
// once; the renamed <id>.ndjson.corrupt file stays on disk for the
// operator, and later startup scans no longer pay to parse it.
func (s *Server) quarantine(id string, cause error) {
	s.log().Warn("journal unusable; quarantining",
		"job", id, "err", cause, "corrupt", id+".ndjson.corrupt")
	if err := s.store.Quarantine(id); err != nil {
		s.log().Error("quarantine journal failed", "job", id, "err", err)
	}
}

// reopenSink reopens a resumed job's journal before a run attempt (the
// previous attempt closed it at a committed boundary when the job was
// preempted, or recovery's reopen was lost). The scan's committed count
// is reconciled with RAM: normally they already agree — every record is
// written to the journal before RAM, and preemption closes with a flush
// — but if the previous attempt's sink had broken mid-run, disk is
// behind RAM, and disk wins: the resumed attempt appends after the
// committed prefix, so RAM rolls back to it and the tail past it is
// recomputed (byte-identically).
func (s *Server) reopenSink(job *Job) {
	if job.sink != nil {
		return
	}
	j, n, err := s.store.ResumeAt(job.id)
	if err != nil {
		s.log().Warn("reopen journal for resume failed; continuing without persistence",
			"job", job.id, "err", err)
		return
	}
	job.sink = newJournalSink(j)
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.completed == n {
		return
	}
	if n > len(job.cellResults) {
		n = len(job.cellResults) // unreachable: disk never leads RAM
	}
	job.cellResults = job.cellResults[:n]
	for i := range job.cellOnline {
		job.cellOnline[i] = stats.NewOnline()
	}
	for _, r := range job.cellResults {
		job.cellOnline[r.Cell].Add(float64(r.Rounds))
	}
	done := n / job.sweep.Trials
	for i := range job.cellPhases {
		if i < done {
			job.cellPhases[i] = CellDone
		} else {
			job.cellPhases[i] = CellQueued
		}
	}
	job.completed = n
}

// applyTerminal restores a job's terminal state from its journal. The
// job's results stay on disk: evicted is set from the start, so the
// results endpoint streams the journal's result section verbatim.
func applyTerminal(job *Job, t *store.Terminal) error {
	st := JobState(t.State)
	if !st.Terminal() {
		return fmt.Errorf("%w: journal %s: bad terminal state %q", ErrInput, job.id, t.State)
	}
	job.state = st
	job.completed = t.Completed
	job.errMsg = t.Error
	job.finished = t.Finished
	job.evicted = true
	job.persisted = true
	return nil
}

// evictLocked enforces the retention bounds against the server clock:
// beyond RetainResults finished jobs (or past RetainTTL), the oldest
// finished jobs' result slices are dropped from RAM — their status and
// aggregates stay, and their results are served from the journal. Only
// durably persisted jobs are evicted (terminate registers them as it
// publishes their terminal state), and never while a results stream is
// following them; without a Store nothing is ever evicted. TTL expiry
// is additionally enforced by the retention ticker and on status and
// results reads, so it does not wait for the next job to finish.
// Callers hold s.mu.
func (s *Server) evictLocked() {
	now := s.clock()
	keep := s.cfg.RetainResults
	if keep < 0 {
		keep = len(s.finishedJobs) // count bound disabled; TTL may still evict
	}
	kept := s.finishedJobs[:0]
	for i, job := range s.finishedJobs {
		overCount := len(s.finishedJobs)-i > keep
		expired := s.cfg.RetainTTL > 0 && now.Sub(job.finishedAt()) > s.cfg.RetainTTL
		if (overCount || expired) && tryEvict(job) {
			continue
		}
		kept = append(kept, job)
	}
	s.finishedJobs = kept
}

func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// tryEvict drops a finished job's per-trial result slices from RAM,
// reporting false while a live results stream still reads them.
func tryEvict(job *Job) bool {
	job.mu.Lock()
	defer job.mu.Unlock()
	if !job.persisted || job.streams > 0 {
		return false
	}
	job.cellResults = nil
	job.evicted = true
	return true
}
