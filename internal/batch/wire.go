package batch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/repro/cobra/internal/store"
)

// The two wire encodings of a cobrad job. Every job runs one way — as a
// sweep, through one run loop, one set of per-cell RAM state and one
// journal (service.go, persist.go) — and a campaign is a sweep with
// one cell (campaignSweep). Only the encoding at the edges depends on
// the job's kind; all of it lives here except the event stream's, which
// events.go derives from the same kind:
//
//	                  campaign (ids c…)          sweep (ids s…)
//	routes            /v1/campaigns              /v1/sweeps
//	submission body   Spec                       SweepSpec
//	status            jobStatus, echoing Spec    sweepStatus
//	result line       TrialResult, no "cell"     CellResult
//	journal header    KindCampaign, Spec         KindSweep, SweepSpec
//	journal final     Aggregate                  []CellSummary
//	failure message   the cell's cause alone     "cell c (...): cause"
//	event stream      no "cell" events           "cell" phase events
//
// The journal shapes are a storage format: stores already on disk must
// keep recovering (TestRecoverOldJournals).

// route is the path prefix of a kind's job resources, /v1/{kind}s/.
func route(kind store.Kind) string { return "/v1/" + string(kind) + "s/" }

// jobStatus is the wire form of a campaign job's status.
type jobStatus struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Spec      Spec     `json:"spec"`
	Trials    int      `json:"trials"`
	Completed int      `json:"completed"`
	// Preemptions counts how often the job was checkpointed at a trial
	// boundary and requeued for a higher-priority submission; its results
	// are unaffected (resume is byte-identical).
	Preemptions int        `json:"preemptions,omitempty"`
	Aggregate   *Aggregate `json:"aggregate,omitempty"`
	Error       string     `json:"error,omitempty"`
}

// sweepStatus is the wire form of a sweep job's status.
type sweepStatus struct {
	ID        string    `json:"id"`
	State     JobState  `json:"state"`
	Spec      SweepSpec `json:"spec"`
	Cells     int       `json:"cells"`
	Trials    int       `json:"trials"`    // total across cells
	Completed int       `json:"completed"` // trials completed across cells
	// Preemptions counts trial-boundary checkpoints (see jobStatus).
	Preemptions int           `json:"preemptions,omitempty"`
	CellAggs    []CellSummary `json:"cell_aggregates,omitempty"`
	Error       string        `json:"error,omitempty"`
}

// statusLocked renders the job's wire status: a jobStatus for a
// campaign, a sweepStatus for a sweep. withCells selects whether a
// sweep's per-cell aggregates are included (the list endpoint skips them
// to keep listings compact and each job's lock hold short). Callers hold
// j.mu.
func (j *Job) statusLocked(withCells bool) any {
	if j.kind == store.KindCampaign {
		return jobStatus{
			ID:          j.id,
			State:       j.state,
			Spec:        j.spec,
			Trials:      j.spec.Trials,
			Completed:   j.completed,
			Preemptions: j.preemptions,
			Aggregate:   j.aggregateLocked(0),
			Error:       j.errMsg,
		}
	}
	st := sweepStatus{
		ID:          j.id,
		State:       j.state,
		Spec:        j.sweep,
		Cells:       len(j.cellSpecs),
		Trials:      len(j.cellSpecs) * j.sweep.Trials,
		Completed:   j.completed,
		Preemptions: j.preemptions,
		Error:       j.errMsg,
	}
	if !withCells {
		return st
	}
	if j.cellFinal != nil {
		st.CellAggs = j.cellFinal
		return st
	}
	for i, spec := range j.cellSpecs {
		cs := cellSummary(i, spec, j.aggregateLocked(i))
		cs.Phase = j.cellPhases[i]
		st.CellAggs = append(st.CellAggs, cs)
	}
	return st
}

// aggregateLocked is cell c's aggregate: the run's own once the job is
// done, else the live fold so far (nil before the first trial). Callers
// hold j.mu.
func (j *Job) aggregateLocked(c int) *Aggregate {
	if j.cellFinal != nil {
		return j.cellFinal[c].Aggregate
	}
	if o := j.cellOnline[c]; o.N() > 0 {
		if summary, err := o.Summary(); err == nil {
			return &Aggregate{Completed: o.N(), Rounds: summary}
		}
	}
	return nil
}

// decodeSubmission reads a POST body of kind, folds the ?priority= and
// ?deadline= query parameters over it, and checks it against the
// server's limits. It returns the campaign's Spec (zero for a sweep) and
// the plan the job runs.
func (s *Server) decodeSubmission(w http.ResponseWriter, r *http.Request, kind store.Kind) (Spec, SweepSpec, error) {
	var spec Spec
	var plan SweepSpec
	into, priority, deadline := any(&plan), &plan.Priority, &plan.Deadline
	if kind == store.KindCampaign {
		into, priority, deadline = &spec, &spec.Priority, &spec.Deadline
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return spec, plan, fmt.Errorf("bad request body: %v", err)
	}
	if err := applyQueueParams(r, priority, deadline); err != nil {
		return spec, plan, err
	}
	if kind == store.KindCampaign {
		if err := spec.Validate(); err != nil {
			return spec, plan, err
		}
		if spec.Trials > s.cfg.MaxTrials {
			return spec, plan, fmt.Errorf("trials %d exceeds this server's limit of %d (per-trial results are retained in memory)",
				spec.Trials, s.cfg.MaxTrials)
		}
		return spec, campaignSweep(spec), nil
	}
	if err := plan.Validate(); err != nil {
		return spec, plan, err
	}
	// Overflow-safe form of cells*Trials > MaxTrials (Trials arrives as an
	// arbitrary JSON integer; the product must never wrap past the cap).
	if cells := plan.CellCount(); plan.Trials > s.cfg.MaxTrials/cells {
		return spec, plan, fmt.Errorf("sweep total of %d cells x %d trials exceeds this server's limit of %d (per-trial results are retained in memory)",
			cells, plan.Trials, s.cfg.MaxTrials)
	}
	// A submission that leaves cell-level parallelism unset inherits the
	// server's -cell-workers default; the applied value is echoed in the
	// job's status and journal header. Results are identical either way.
	if plan.CellWorkers <= 0 {
		plan.CellWorkers = s.cfg.CellWorkers
	}
	return spec, plan, nil
}

// decodeHeader is decodeSubmission for a recovered journal: the
// header's spec, decoded by kind, and the plan the job runs.
func decodeHeader(h store.Header) (Spec, SweepSpec, error) {
	var spec Spec
	var plan SweepSpec
	into := any(&plan)
	switch h.Kind {
	case store.KindCampaign:
		into = &spec
	case store.KindSweep:
	default:
		return spec, plan, fmt.Errorf("unknown journal kind %q", h.Kind)
	}
	if err := json.Unmarshal(h.Spec, into); err != nil {
		return spec, plan, fmt.Errorf("%w: journal %s: bad %s spec: %v", ErrInput, h.ID, h.Kind, err)
	}
	if h.Kind == store.KindCampaign {
		plan = campaignSweep(spec)
	}
	return spec, plan, nil
}

// headerSpec is the spec the job's journal header carries: a campaign's
// submitted Spec, a sweep's effective SweepSpec.
func (j *Job) headerSpec() any {
	if j.kind == store.KindCampaign {
		return j.spec
	}
	return j.sweep
}

// result is one committed result as the job's result line — the record
// the journal holds and the results endpoint streams.
func (j *Job) result(r CellResult) any {
	if j.kind == store.KindCampaign {
		return r.TrialResult
	}
	return r
}

// final is the terminal record's final value for a job finished with
// cells (nil, written as no value, when there are none).
func (j *Job) final(cells []CellSummary) any {
	switch {
	case cells == nil:
		return nil
	case j.kind == store.KindCampaign:
		return cells[0].Aggregate
	}
	return cells
}

// restoreFinal is the inverse of final for a restored done job; an
// undecodable value restores no summaries.
func (j *Job) restoreFinal(raw json.RawMessage) {
	if j.kind == store.KindSweep {
		var cells []CellSummary
		if json.Unmarshal(raw, &cells) == nil {
			j.cellFinal = cells
		}
		return
	}
	var agg Aggregate
	if json.Unmarshal(raw, &agg) == nil {
		cs := cellSummary(0, j.cellSpecs[0], &agg)
		cs.Phase = CellDone
		j.cellFinal = []CellSummary{cs}
	}
}

// failure is the error message a failed run leaves on the job.
func (j *Job) failure(err error) string {
	var ce *cellError
	if j.kind == store.KindCampaign && errors.As(err, &ce) {
		err = ce.err
	}
	return err.Error()
}
