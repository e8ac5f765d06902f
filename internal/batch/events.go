package batch

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/store"
)

// Per-job live event streams: GET /v1/campaigns/{id}/events and
// GET /v1/sweeps/{id}/events serve the job's lifecycle as server-sent
// events (text/event-stream). A follower sees:
//
//	event: state    one JSON object per observed change of the job's
//	                (state, completed, preemptions) tuple, carrying the
//	                rolling mean of rounds folded so far. Progress is
//	                coalesced, not per-trial: a follower that wakes after
//	                many trials sees one event with the latest counts, so
//	                a stream is cheap even on a million-trial campaign.
//	event: cell     (sweeps only) one {"cell": i, "phase": ...} object per
//	                observed per-cell scheduler phase change, in cell
//	                order within each wake-up.
//	event: end      exactly one, last: data "complete" when the stream
//	                followed the job to a terminal state (the terminal
//	                state event always precedes it), "aborted" when it
//	                could not — mirroring the X-Cobrad-Stream trailer
//	                contract of the results endpoints.
//
// The stream is a read-side follower of the same notify channel the
// results streams use: it takes snapshots under the job lock and never
// writes job state, so attaching any number of followers cannot perturb
// results (the observe-only contract; events_test.go races followers
// against the conformance suites' jobs).
//
// Server shutdown: Close leaves no job non-terminal, so a follower of a
// job aborted by Close still observes the terminal "failed" state event
// followed by end — it does not just see its connection drop.

// eventState is the data payload of a "state" event.
type eventState struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Trials is the job's total trial budget (cells x trials for sweeps);
	// Completed counts trials delivered so far.
	Trials    int `json:"trials"`
	Completed int `json:"completed"`
	// Preemptions counts trial-boundary checkpoints so far.
	Preemptions int `json:"preemptions,omitempty"`
	// MeanRounds is the rolling mean of rounds across the trials folded so
	// far (the live aggregate the status endpoint reports), 0 until the
	// first trial lands.
	MeanRounds float64 `json:"mean_rounds,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// eventCell is the data payload of a "cell" event (sweeps only).
type eventCell struct {
	Cell  int       `json:"cell"`
	Phase CellPhase `json:"phase"`
}

// End-event payloads, mirroring the results trailer values.
const (
	endComplete = StreamComplete
	endAborted  = StreamAborted
)

// eventSnap is one consistent observation of a job, taken under its lock.
type eventSnap struct {
	st       eventState
	phases   []CellPhase
	terminal bool
	wake     chan struct{}
}

func (s *Server) snapshotEvents(job *Job) eventSnap {
	job.mu.Lock()
	defer job.mu.Unlock()
	snap := eventSnap{
		st: eventState{
			ID:          job.id,
			State:       job.state,
			Completed:   job.completed,
			Preemptions: job.preemptions,
			Error:       job.errMsg,
		},
		terminal: job.state.Terminal(),
		wake:     job.notify,
	}
	snap.st.Trials = len(job.cellSpecs) * job.sweep.Trials
	snap.st.MeanRounds = meanRounds(job.cellOnline)
	if job.kind == store.KindSweep {
		snap.phases = append([]CellPhase(nil), job.cellPhases...)
	}
	return snap
}

// meanRounds folds the per-accumulator means into one weighted rolling
// mean; 0 while nothing has been observed. Each product is rounded
// explicitly so no target fuses it into a multiply-add (see package
// stats).
func meanRounds(folds []*stats.Online) float64 {
	n := 0
	sum := 0.0
	for _, o := range folds {
		if o == nil || o.N() == 0 {
			continue
		}
		summary, err := o.Summary()
		if err != nil {
			continue
		}
		n += o.N()
		sum += float64(float64(o.N()) * summary.Mean)
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// streamEvents serves one follower. It loops snapshot → emit deltas →
// wait on the job's notify channel, ending with exactly one "end" event.
//
// ?cell=N (sweeps only) narrows the stream to one cell: "cell" events
// for other cells are dropped, while "state" events (whole-job progress)
// and the single terminal "end" event keep their full-stream semantics —
// a filtered follower still observes the job's fate exactly once. This
// is how a fleet operator watches the one cell a worker is leasing
// without the other cells' phase churn.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	cellFilter := -1
	if v := r.URL.Query().Get("cell"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "cell must be a non-negative integer")
			return
		}
		cells := len(job.cellSpecs) // fixed at submission
		if job.kind != store.KindSweep {
			httpError(w, http.StatusBadRequest, "cell filtering applies to sweep event streams")
			return
		}
		if n >= cells {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("cell %d outside [0, %d)", n, cells))
			return
		}
		cellFilter = n
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "event stream needs a flushing writer")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.met.eventStreams.Add(1)
	defer s.met.eventStreams.Add(-1)

	emit := func(event string, data any) bool {
		payload, err := json.Marshal(data)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload); err != nil {
			return false
		}
		return true
	}
	end := func(verdict string) {
		if _, err := fmt.Fprintf(w, "event: end\ndata: %s\n\n", verdict); err == nil {
			flusher.Flush()
		}
	}

	var last *eventState
	var lastPhases []CellPhase
	// deliver emits whatever changed since the previous snapshot and
	// reports whether the connection is still writable.
	deliver := func(snap eventSnap) bool {
		wrote := false
		for i, ph := range snap.phases {
			if lastPhases != nil && lastPhases[i] == ph {
				continue
			}
			if cellFilter >= 0 && i != cellFilter {
				continue
			}
			if !emit("cell", eventCell{Cell: i, Phase: ph}) {
				return false
			}
			wrote = true
		}
		lastPhases = snap.phases
		if last == nil || *last != snap.st {
			if !emit("state", snap.st) {
				return false
			}
			st := snap.st
			last = &st
			wrote = true
		}
		if wrote {
			flusher.Flush()
		}
		return true
	}

	for {
		snap := s.snapshotEvents(job)
		if !deliver(snap) {
			return // client went away mid-write; nothing more to say
		}
		if snap.terminal {
			end(endComplete)
			return
		}
		// Server shutdown needs no case of its own: Close brings every job
		// to a terminal state before it returns, so the follower keeps
		// waiting on the notify channel until the terminal snapshot arrives
		// and observes the job's fate. Only a client disconnect aborts.
		select {
		case <-snap.wake:
		case <-r.Context().Done():
			end(endAborted)
			return
		}
	}
}
