package batch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/obs"
	"github.com/repro/cobra/internal/stats"
)

// The trial loop: the one scheduler behind every run in this package — a
// sweep of many cells, a campaign (a one-cell run) and a fleet worker's
// leased cell. It keeps every compute goroutine busy while preserving,
// bit for bit, the observable behavior of the sequential loop over cells
// and their trials.
//
// # Architecture
//
// The run's tail is a flat sequence of (cell, trial) units in cell-index,
// then trial order. Three roles cooperate:
//
//   - The *admitter* (one goroutine) walks cells in cell-index order —
//     graphs outermost, the sweep's admission order. For each cell it
//     takes a window slot (backpressure, see below), calls admit(cell) —
//     for sweeps, compiling the cell's campaign through the shared graph
//     cache — and opens the cell to claims. Admission is strictly
//     sequential, so all cells of graph g touch the cache before any cell
//     of graph g+1, and even a capacity-1 cache compiles each distinct
//     graph exactly once.
//   - The *claimers* (workers goroutines: CellWorkers × Workers for a
//     sweep, Workers for a campaign) take the next unclaimed unit of the
//     open cells, in flat order, and compute it on their own engine
//     workspace. A goroutine that finishes a short trial claims the next
//     unit, in the head cell or in a later open cell, instead of idling
//     behind a slow head-cell trial; it waits only when every unit of
//     every open cell is claimed.
//   - The *committer* (the caller's goroutine) owns delivery: results
//     reach it in completion order, and it delivers them strictly in
//     (cell, trial) order, folding each into its cell's aggregate after
//     delivering it. A result whose predecessors are all delivered goes
//     out at once; later ones wait in the reorder buffer. A cell commits
//     when its last trial is delivered, and only then frees its window
//     slot.
//
// A fleet coordinator computes its cells elsewhere (remote). There a unit
// is a whole cell, because a lease covers one cell: the claimer hands the
// cell to the remote runner and forwards the trials it delivers.
//
// # Backpressure window
//
// At most `window` cells (the sweep's CellWorkers) are admitted but not
// yet committed: at most that many cells hold compiled campaigns or
// buffered results, and admitting one more waits for the head cell to
// commit. The head cell is open and its units are claimed before any
// later unit, so it always completes and the window always drains — no
// schedule can deadlock it. The claim lock guards only the claim cursor:
// nobody blocks or calls out while holding it.
//
// # Determinism
//
// Trial k of a cell draws NewStream(seed, k) whichever goroutine runs it,
// and the committer alone delivers and folds, in (cell, trial) order. The
// delivered stream — and every aggregate folded from it — is therefore
// identical for every goroutine count, window and completion order,
// including one goroutine, which is the sequential loop.
// sweep_conform_test.go and cellsched_test.go pin this.

// CellPhase is the lifecycle of one sweep cell under the trial loop.
type CellPhase string

const (
	// CellQueued means the cell has not been admitted yet.
	CellQueued CellPhase = "queued"
	// CellRunning means the cell has been admitted (its campaign is
	// compiled) and its trials are being claimed, computed or buffered.
	CellRunning CellPhase = "running"
	// CellDone means the cell committed: all its results are delivered.
	CellDone CellPhase = "done"
	// CellFailed marks a cell that will never commit: the loop emits it
	// for the failing cell itself (whether admission or a trial failed),
	// and the job layer extends it to cells cancelled in flight, so a
	// failed sweep's status cannot report phantom running cells.
	CellFailed CellPhase = "failed"
)

// trialLoop runs the trials of `cells` cells of `trials` trials each. Fill
// cells, trials, and trial or remote; every other field is optional.
type trialLoop struct {
	cells, trials int
	// first and from are the resume point: cells [0, first) were committed
	// by an earlier run (a replayed journal prefix) and cell first resumes
	// at trial from. Only the tail is admitted, computed, delivered and
	// phase-notified, so the delivered stream is exactly the one an
	// uninterrupted run produces from (first, from) on.
	first, from int
	// prefix holds the folds the run continues: prefix[c], for c < first,
	// is committed cell c's fold, and prefix[first], when present, folds
	// cell first's trials [0, from) and receives its tail. Every other cell
	// starts an empty fold.
	prefix []*stats.Online
	// window bounds the admitted-but-uncommitted cells (< 1: 1).
	window int
	// workers is the number of compute goroutines (< 1: 1). It is capped
	// at the number of units in the tail.
	workers int
	// admit, when non-nil, prepares a cell before it opens to claims. It
	// runs on the admitter goroutine, in cell-index order; an error fails
	// the cell.
	admit func(cell int) error
	// trial computes trial k of a cell on the calling goroutine's
	// workspace.
	trial func(ws *engine.Workspace, cell, k int) (TrialResult, error)
	// remote, when non-nil, replaces trial: a claim takes a whole cell, and
	// remote delivers its trials [from, trials) in trial order. It returns
	// nil once the cell is complete.
	remote func(ctx context.Context, cell, from int, deliver func(TrialResult)) error
	// wrap, when non-nil, decorates a failed cell's error with its identity.
	wrap func(cell int, err error) error
	// onPhase, when non-nil, observes lifecycle transitions: CellRunning
	// from the admitter, CellDone and CellFailed from the committer. Calls
	// for one cell are ordered; calls for different cells may be
	// concurrent.
	onPhase func(cell int, phase CellPhase)
	// Observe-only instruments (nil = no-op; the obs instruments are
	// nil-receiver safe). None of them feeds back into scheduling: the
	// claims, admission order and delivered stream are identical with and
	// without them.
	stalls   *obs.Counter   // admissions that waited on a full window
	reorder  *obs.Gauge     // cells holding buffered out-of-order results
	cellWall *obs.Histogram // per-cell seconds, first claim to last trial finished
}

// loopEvent is one message to the committer. Without end it carries the
// result of trial `trial` of `cell`. With end it marks the end of the
// cell's tail at `trial`: with err the cell failed there (a trial or the
// admission failed), without it a remote cell completed.
type loopEvent struct {
	cell, trial int
	res         TrialResult
	err         error
	end         bool
}

// loopRun is the state of one run of a trialLoop.
type loopRun struct {
	*trialLoop
	events  chan loopEvent // admitter and claimers → committer
	slots   chan struct{}  // window slots: taken at admission, freed at commit
	stopped atomic.Bool    // a unit failed: claim nothing more

	mu       sync.Mutex    // guards the claim cursor below
	cell, k  int           // the next unclaimed unit
	admitted int           // cells [first, admitted) are open to claims
	claimed  int           // cells [first, claimed) have a claimed unit
	opened   chan struct{} // closed, and replaced, when admitted grows

	// Per cell, written at its first claim: when that was, and how many
	// of its units are still computing (for cellWall).
	started []time.Time
	left    []atomic.Int64
}

// run executes the tail, invoking onResult (may be nil) for every trial
// result in strict (cell, trial) order, and returns every cell's
// aggregate in cell order. The first failure in (cell, trial) order stops
// the run and is returned — every failure of that cell, joined in trial
// order and wrapped — after everything before it was delivered; later
// results are discarded. A cancelled ctx returns its error.
func (l *trialLoop) run(ctx context.Context, onResult func(CellResult)) ([]*Aggregate, error) {
	first, from := l.first, l.from
	if first < 0 || first > l.cells || from < 0 || from > l.trials || (first == l.cells && from > 0) {
		return nil, fmt.Errorf("%w: resume point (cell %d, trial %d) outside %d cells of %d trials", ErrInput, first, from, l.cells, l.trials)
	}
	if from == l.trials {
		first, from = first+1, 0 // cell first is complete: a replayed cell
	}
	aggs := make([]*Aggregate, l.cells)
	for c := 0; c < first; c++ {
		agg, err := aggregate(l.fold(c))
		if err != nil {
			return nil, l.wrapErr(c, fmt.Errorf("replayed aggregate: %w", err))
		}
		aggs[c] = agg
	}
	if first == l.cells {
		return aggs, nil
	}
	units := (l.cells-first)*l.trials - from
	if l.remote != nil {
		units = l.cells - first
	}
	workers := min(max(l.workers, 1), units)
	r := &loopRun{
		trialLoop: l,
		// Every send is unconditional: the committer drains events until
		// close, so no result of a unit that completes is ever dropped.
		// 64 events (a few KiB) let claimers run on while the committer
		// is busy delivering or descheduled.
		events:   make(chan loopEvent, 64),
		slots:    make(chan struct{}, max(l.window, 1)),
		cell:     first,
		k:        from,
		admitted: first,
		claimed:  first,
		opened:   make(chan struct{}),
		started:  make([]time.Time, l.cells),
		left:     make([]atomic.Int64, l.cells),
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.admitCells(ctx, first, from)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(ctx)
		}()
	}
	go func() {
		wg.Wait()
		close(r.events)
	}()
	return r.commit(ctx, cancel, first, from, onResult, aggs)
}

// work claims and computes units until none is left to claim.
func (r *loopRun) work(ctx context.Context) {
	var ws *engine.Workspace
	for {
		cell, k, ok := r.claim(ctx)
		if !ok {
			return
		}
		var err error
		if r.remote != nil {
			next := k
			err = r.remote(ctx, cell, k, func(res TrialResult) {
				r.events <- loopEvent{cell: cell, trial: next, res: res}
				next++
			})
			r.events <- loopEvent{cell: cell, trial: next, err: err, end: true}
		} else {
			if ws == nil {
				ws = engine.NewWorkspace()
			}
			var res TrialResult
			if res, err = r.trial(ws, cell, k); err != nil {
				err = fmt.Errorf("trial %d: %w", k, err)
			}
			r.events <- loopEvent{cell: cell, trial: k, res: res, err: err, end: err != nil}
		}
		if err != nil {
			// Stop claiming: every unit before this one in flat order is
			// already claimed, so everything the committer may still
			// deliver will arrive.
			r.stopped.Store(true)
		} else if r.left[cell].Add(-1) == 0 {
			r.cellWall.Observe(time.Since(r.started[cell]).Seconds())
		}
	}
}

// admitCells is the admitter: it admits cells first, first+1, … in
// order, each once a window slot is free, and opens them to claims. A
// failed admission is the cell's failure at its first unit; the claimers
// finish the cells before it, and the committer stops the run there.
func (r *loopRun) admitCells(ctx context.Context, first, from int) {
	for c := first; c < r.cells; c++ {
		select {
		case r.slots <- struct{}{}:
		default:
			// The window is full: every slot is held by an uncommitted
			// cell, so admission (and graph compilation) waits on a
			// commit while the claimers work through the open cells.
			// Counted, then the blocking wait.
			r.stalls.Inc()
			select {
			case r.slots <- struct{}{}:
			case <-ctx.Done():
				return
			}
		}
		if r.admit != nil {
			if err := r.admit(c); err != nil {
				k := 0
				if c == first {
					k = from
				}
				r.events <- loopEvent{cell: c, trial: k, err: err, end: true}
				return // sequential semantics: nothing past a failed admission
			}
		}
		r.phase(c, CellRunning)
		r.mu.Lock()
		r.admitted = c + 1
		close(r.opened)
		r.opened = make(chan struct{})
		r.mu.Unlock()
	}
}

// claim takes the next unit of the tail — trial k of cell, or a whole
// remote cell from trial k — waiting for its cell to open if need be. ok
// is false when nothing is left to claim: the tail is exhausted, a unit
// failed, or ctx is done.
func (r *loopRun) claim(ctx context.Context) (cell, k int, ok bool) {
	r.mu.Lock()
	for r.cell == r.admitted && r.cell < r.cells && !r.stopped.Load() {
		opened := r.opened
		r.mu.Unlock()
		select {
		case <-opened:
		case <-ctx.Done():
			return 0, 0, false
		}
		r.mu.Lock()
	}
	defer r.mu.Unlock()
	if r.stopped.Load() || r.cell == r.cells || ctx.Err() != nil {
		return 0, 0, false
	}
	cell, k = r.cell, r.k
	if cell == r.claimed {
		r.claimed++
		r.started[cell] = time.Now()
		units := r.trials - k
		if r.remote != nil {
			units = 1
		}
		r.left[cell].Store(int64(units))
	}
	r.k++
	if r.remote != nil || r.k == r.trials {
		r.cell, r.k = r.cell+1, 0
	}
	return cell, k, true
}

// commit is the committer: it drains events, delivering and folding in
// (cell, trial) order and committing cells in cell order, starting at
// trial from of cell first.
func (r *loopRun) commit(ctx context.Context, cancel context.CancelFunc, first, from int, onResult func(CellResult), aggs []*Aggregate) ([]*Aggregate, error) {
	type pos struct{ cell, trial int }
	pend := make(map[pos]loopEvent)
	buffered := make([]int, r.cells) // pend entries per cell
	head, next := first, from        // the next result to deliver
	fold := r.fold(head)
	var failures []loopEvent
	failed := -1 // the failed cell, once its failure is committed

	// advance consumes ev, the event at the head position, committing the
	// head cell when ev ends it; it reports false once the run has failed.
	advance := func(ev loopEvent) bool {
		if !ev.end {
			if onResult != nil {
				onResult(CellResult{Cell: head, TrialResult: ev.res})
			}
			fold.Add(float64(ev.res.Rounds))
			next++
			if next < r.trials || r.remote != nil {
				return true
			}
		}
		var agg *Aggregate
		err := ev.err
		if err == nil {
			if agg, err = aggregate(fold); err != nil {
				failures = append(failures, loopEvent{cell: head, trial: next, err: err})
			}
		}
		if err != nil {
			failed = head
			r.phase(head, CellFailed)
			cancel()
			return false
		}
		aggs[head] = agg
		r.phase(head, CellDone)
		<-r.slots
		head, next = head+1, 0
		if head < r.cells {
			fold = r.fold(head)
		}
		return true
	}

	for ev := range r.events {
		if ev.err != nil {
			failures = append(failures, ev)
		}
		if failed >= 0 {
			continue // draining a failed run
		}
		if ev.cell != head || ev.trial != next {
			if buffered[ev.cell]++; buffered[ev.cell] == 1 {
				r.reorder.Add(1)
			}
			pend[pos{ev.cell, ev.trial}] = ev
			continue
		}
		for advance(ev) {
			// Flush the results that completed ahead of the new head.
			p, ok := pend[pos{head, next}]
			if !ok {
				break
			}
			delete(pend, pos{head, next})
			if buffered[head]--; buffered[head] == 0 {
				r.reorder.Add(-1)
			}
			ev = p
		}
	}
	// A failed or cancelled run leaves undelivered results; release their
	// gauge contribution so it tracks live buffers only.
	for _, n := range buffered {
		if n > 0 {
			r.reorder.Add(-1)
		}
	}
	if failed >= 0 {
		var errs []error
		sort.Slice(failures, func(i, j int) bool { return failures[i].trial < failures[j].trial })
		for _, f := range failures {
			if f.cell == failed {
				errs = append(errs, f.err)
			}
		}
		return nil, r.wrapErr(failed, errors.Join(errs...))
	}
	if head < r.cells {
		// Cancelled (or the parent ctx expired) with no failure committed:
		// surface the cause rather than partial results.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: trial loop stopped after %d of %d cells", ErrInput, head, r.cells)
	}
	return aggs, nil
}

// fold returns the fold cell c continues: its prefix entry, or an empty
// one.
func (l *trialLoop) fold(c int) *stats.Online {
	if c < len(l.prefix) && l.prefix[c] != nil {
		return l.prefix[c]
	}
	return stats.NewOnline()
}

func (l *trialLoop) wrapErr(cell int, err error) error {
	if l.wrap == nil {
		return err
	}
	return l.wrap(cell, err)
}

func (l *trialLoop) phase(cell int, ph CellPhase) {
	if l.onPhase != nil {
		l.onPhase(cell, ph)
	}
}

// aggregate renders a fold as a cell aggregate.
func aggregate(o *stats.Online) (*Aggregate, error) {
	summary, err := o.Summary()
	if err != nil {
		return nil, err
	}
	return &Aggregate{Completed: o.N(), Rounds: summary}, nil
}
