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
// NewServerWith journals every accepted job to a Store. A job holds one
// *store.Journal from Create — or from Resume or Reset at recovery —
// until terminate seals it; an in-memory server's jobs hold nil, which
// persists nothing and encodes nothing. The header (kind + spec) is
// durable before the submission is acknowledged, result records are
// appended as trials commit (the same bytes the results endpoint
// streams), and a terminal record seals the journal when the job
// finishes. Journal errors are sticky: a failed write stops persisting,
// never the run, and terminate logs it once as it seals or closes the
// journal. On startup the server replays the store: finished jobs are
// restored with their aggregates in RAM and their results served from
// disk; interrupted or still-queued jobs are *resumed* — the journal is
// reopened where Recover's scan found its committed prefix ending, that
// prefix is replayed into RAM (results, aggregates, cell phases), and
// the job is requeued to execute only the uncommitted tail, which the
// campaign determinism contract makes byte-identical to the tail the
// crash destroyed. Unusable journals are quarantined to
// <id>.ndjson.corrupt rather than silently rescanned forever.

// Store is the pluggable durability layer behind a persistent Server,
// implemented by *store.Store. nil means in-memory only (jobs do not
// survive a restart, and finished results are never evicted from RAM).
type Store interface {
	Create(h store.Header) (*store.Journal, error)
	Recover() ([]store.Recovered, error)
	Resume(rec store.Recovered) (*store.Journal, error)
	Reset(id string) (*store.Journal, error)
	Quarantine(id string) error
	Remove(id string) error
	Results(id string) (*store.Results, error)
	SetMetrics(m store.Metrics)
}

// createJournal writes and fsyncs a freshly accepted job's journal
// header; without a store the job keeps a nil journal.
func (s *Server) createJournal(job *Job) error {
	if s.store == nil {
		return nil
	}
	raw, err := json.Marshal(job.headerSpec())
	if err != nil {
		return err
	}
	job.journal, err = s.store.Create(store.Header{Kind: job.kind, ID: job.id, Created: job.created, Spec: raw})
	return err
}

// seal writes the job's terminal record and closes its journal: the
// job's terminal state and final aggregate are durable when seal returns
// nil. Without a journal there is nothing to seal or to encode.
func (job *Job) seal(state JobState, completed int, finished time.Time, cells []CellSummary, errMsg string) error {
	if job.journal == nil {
		return nil
	}
	t := store.Terminal{State: string(state), Completed: completed, Finished: finished, Error: errMsg}
	if final := job.final(cells); final != nil {
		raw, err := json.Marshal(final)
		if err != nil {
			_ = job.journal.Close() // left unsealed: recovery resumes the job
			return fmt.Errorf("encode final: %w", err)
		}
		t.Final = raw
	}
	return job.journal.Finish(t)
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
// finished job as it was — results stay on disk. An unsealed one is
// resumed where Recover's scan found its committed prefix ending (any
// torn tail truncated), the prefix replayed into RAM, and the job
// requeued to compute only the tail; a prefix that will not replay
// falls back to Reset and a from-scratch re-run rather than losing the
// job.
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
		job.journal, err = s.store.Resume(rec)
		if err == nil && rec.Results > 0 {
			err = s.replay(job)
		}
		if err != nil {
			if err := s.resetForRerun(job, err); err != nil {
				return err
			}
		}
		s.queue.push(job, true)
	}
	s.table(job.kind)[job.id] = job
	s.order = append(s.order, job)
	return nil
}

// replay loads an interrupted job's committed prefix from its resumed
// journal into RAM (results, count, per-cell folds, phases), so the
// requeued job continues after it instead of recomputing it. Records
// are validated against the flattened (cell, trial) order: record i must
// carry cell i/Trials, trial i%Trials (a campaign's records carry no
// cell, which decodes as cell 0). Replayed records never touch the
// trials-executed counter: only genuinely computed trials count there.
func (s *Server) replay(job *Job) error {
	trials := job.sweep.Trials
	total := len(job.cellSpecs) * trials
	it, err := s.store.Results(job.id)
	if err != nil {
		return err
	}
	defer it.Close()
	for it.Next() {
		i := len(job.cellResults)
		if i == total {
			return fmt.Errorf("journal holds more than the job's %d results", total)
		}
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
	n := len(job.cellResults)
	for i := 0; i < n/trials; i++ {
		job.cellPhases[i] = CellDone
	}
	job.completed = n
	job.started = true
	return nil
}

// resetForRerun abandons a committed prefix that cannot be resumed: the
// journal is truncated back to its header, RAM state cleared, and the
// job re-runs from trial 0 — the pre-resume recovery behavior, kept as
// the fallback.
func (s *Server) resetForRerun(job *Job, cause error) error {
	s.log().Warn("cannot resume from committed prefix; re-running from scratch",
		"job", job.id, "err", cause)
	_ = job.journal.Close() // nothing appended yet; Reset reopens the file
	j, err := s.store.Reset(job.id)
	if err != nil {
		return err
	}
	job.journal = j
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
