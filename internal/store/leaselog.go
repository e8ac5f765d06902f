package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Lease log: the fleet coordinator's durable lease table.
//
// The coordinator records every lease transition as one NDJSON line in
// <dir>/leases.log (a .log extension, so Recover's *.ndjson scan never
// mistakes it for a job journal). Replaying the log after a restart
// reconstructs the live lease set, so a coordinator crash does not
// invalidate leases that healthy workers are still renewing — they
// reattach and keep streaming. The log shares the journal line bound
// and torn-tail discipline of job journals: a crash mid-write leaves at
// most one partial line, which the open-time scan truncates away.
//
// The safety property (pinned by FuzzLeaseRecover): folding any lease
// log — including truncated or corrupted ones — yields at most one live
// lease per (job, cell). A grant supersedes any earlier lease on the
// same cell (the coordinator only re-grants after the earlier lease
// ended, so a surviving grant proves the predecessor is dead), and
// complete/expire/release events retire the lease they name; the fold
// is a map keyed by cell, so a double grant cannot survive it.

// leaseLogName is the lease table's file name inside the store
// directory.
const leaseLogName = "leases.log"

// Lease event kinds, in the order a lease moves through them. Renew is
// the only repeatable event; the other four are transitions.
const (
	// LeaseGrant assigns a cell to a worker starting at trial From.
	LeaseGrant = "grant"
	// LeaseRenew extends a live lease's expiry (heartbeat).
	LeaseRenew = "renew"
	// LeaseComplete retires a lease whose cell finished.
	LeaseComplete = "complete"
	// LeaseExpire retires a lease whose holder missed its TTL.
	LeaseExpire = "expire"
	// LeaseRelease retires a lease whose cell was withdrawn (job
	// cancelled, preempted, or the coordinator shut down).
	LeaseRelease = "release"
)

// LeaseEvent is one line of the lease log.
type LeaseEvent struct {
	Event  string `json:"event"`
	Lease  string `json:"lease"`
	Job    string `json:"job,omitempty"`
	Cell   int    `json:"cell"`
	Worker string `json:"worker,omitempty"`
	From   int    `json:"from"`
	// SpecHash is the canonical hash of the leased cell's spec (grant
	// events only). On restart the coordinator refuses to reattach a
	// restored lease to a re-offered cell whose spec hashes differently —
	// a cell key reused for different work cannot inherit the old holder.
	SpecHash string    `json:"spec_hash,omitempty"`
	Expires  time.Time `json:"expires"`
}

// LeaseLog is an open append handle on the lease table: a Journal
// without a header, whose lines are lease events. Appends are serialized
// internally; write errors are sticky like any journal's.
type LeaseLog struct {
	mu sync.Mutex
	j  *Journal
}

// OpenLeaseLog opens (creating if absent) the store's lease log,
// returning the append handle and every event already on disk. Like a
// job journal's Resume, the one scan finds where the committed prefix
// ends, and a torn or undecodable tail past it is truncated away and the
// truncation fsynced, so the returned events are the prefix the next
// append continues.
func (s *Store) OpenLeaseLog() (*LeaseLog, []LeaseEvent, error) {
	path := filepath.Join(s.dir, leaseLogName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: lease log: %w", err)
	}
	events, off, err := ScanLeaseEvents(bufio.NewReaderSize(f, 64<<10))
	if err == nil {
		err = truncateAt(f, off)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: lease log: %w", err)
	}
	return &LeaseLog{j: s.appendHandle(f)}, events, nil
}

// ScanLeaseEvents parses lease events from r until EOF or the first
// line that is torn, empty, or undecodable, returning the events and
// the byte offset of the clean prefix (the truncation point for a
// rewritten tail). A line exceeding the journal line bound is an error:
// a corrupt log cannot make the scan allocate without limit.
func ScanLeaseEvents(br *bufio.Reader) ([]LeaseEvent, int64, error) {
	var (
		events []LeaseEvent
		off    int64
	)
	for {
		line, err := readLine(br)
		if err == errLineTooLong {
			return nil, 0, fmt.Errorf("lease log line exceeds %d bytes", maxLine)
		}
		if err != nil {
			return events, off, nil
		}
		var ev LeaseEvent
		if json.Unmarshal(line, &ev) != nil || ev.Event == "" || ev.Lease == "" {
			// Garbage inside the log (not just a torn tail) still stops
			// the scan: everything after the first bad line is dropped,
			// keeping the replayed prefix self-consistent.
			return events, off, nil
		}
		events = append(events, ev)
		off += int64(len(line)) + 1
	}
}

// Append writes one lease event. Grants and retirements (complete,
// expire, release) pass commit=true to fsync before returning — those
// transitions decide which worker owns a cell and must survive a crash;
// renews pass commit=false (losing a buffered renew on crash only
// shortens a recovered lease's remaining TTL, never changes ownership),
// and are fsynced with the next commit, or by the journal's own cadence
// once commitEvery events are pending.
func (l *LeaseLog) Append(ev LeaseEvent, commit bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.j.Record(ev); err != nil || !commit {
		return err
	}
	return l.j.Commit()
}

// Close flushes, fsyncs, and closes the log.
func (l *LeaseLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.j.Close()
}

// LiveLeases folds a lease event sequence into the set of leases still
// live at now, sorted by lease id. The fold keys by (job, cell): a
// grant replaces whatever lease previously held the cell, renews extend
// the current holder only, and complete/expire/release retire the
// holder they name — so the result carries at most one lease per cell
// no matter what the input looks like.
func LiveLeases(events []LeaseEvent, now time.Time) []LeaseEvent {
	type cellKey struct {
		job  string
		cell int
	}
	held := make(map[cellKey]LeaseEvent)
	for _, ev := range events {
		k := cellKey{ev.Job, ev.Cell}
		switch ev.Event {
		case LeaseGrant:
			held[k] = ev
		case LeaseRenew:
			if cur, ok := held[k]; ok && cur.Lease == ev.Lease {
				cur.Expires = ev.Expires
				held[k] = cur
			}
		case LeaseComplete, LeaseExpire, LeaseRelease:
			if cur, ok := held[k]; ok && cur.Lease == ev.Lease {
				delete(held, k)
			}
		}
	}
	var live []LeaseEvent
	for _, ev := range held {
		if now.Before(ev.Expires) {
			live = append(live, ev)
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].Lease < live[b].Lease })
	return live
}
