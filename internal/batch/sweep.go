package batch

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/obs"
	"github.com/repro/cobra/internal/stats"
)

// Parameter-sweep campaigns: one submission carrying axes whose cross
// product expands to a deterministic ordered grid of campaign cells, all
// run through one trial loop (cellsched.go) so distinct graphs compile
// exactly once (LRU cache) and each compute goroutine keeps one engine
// workspace across trials and cells.
//
// # Cell ordering
//
// Cells() expands the axes row-major in declaration order — graphs
// outermost, then processes, then branches, then rhos innermost:
//
//	cell index c = ((gi·|P| + pi)·|B| + bi)·|R| + ri
//
// CellIndex and CellCoords expose the bijection both ways. Graphs vary
// slowest by design: each graph's cells form one contiguous block, so
// admitting cells in cell-index order means all cells of graph g touch
// the cache before any cell of graph g+1 — even a capacity-1 cache stays
// warm through a whole graph's block of cells.
//
// # Sweep determinism contract
//
// Every cell carries the sweep's master seed, so trial k of cell c is a
// pure function of (cell spec, sweep seed, k) — and is *byte-identical*
// to trial k of the standalone campaign obtained by submitting cell c's
// Spec on its own (same graph spec, config, and seed). Cells are
// *admitted* (compiled) strictly in cell-index order and their results
// are *committed* strictly in (cell, trial) order, so the flattened
// result stream and all aggregates are independent of trial worker
// count, cell worker count, completion order, cache temperature,
// workspace reuse, and the HTTP vs library entry point. Between
// admission and commit, up to CellWorkers cells are open at once, and
// CellWorkers × Workers goroutines claim their trials one (cell, trial)
// pair at a time; a reorder buffer in the trial loop (cellsched.go)
// holds results that complete out of order until every earlier result
// is delivered. sweep_test.go, sweep_conform_test.go, cellsched_test.go
// and service_test.go enforce every clause under the race detector.

// SweepSpec describes a parameter-sweep campaign: the cross product of
// the axes (Graphs × Processes × Branches × Rhos) expands to a grid of
// campaign cells sharing the scalar fields below. The JSON field names
// are the cobrad wire format (POST /v1/sweeps).
type SweepSpec struct {
	// Graphs is the graph-spec axis; distinct entries (one or more).
	Graphs []string `json:"graphs"`
	// Processes is the process axis: entries from {"cobra", "bips"}.
	Processes []string `json:"processes"`
	// Branches is the integer branching-factor axis (each >= 1).
	Branches []int `json:"branches"`
	// Rhos is the fractional-branch axis (each in [0,1]); empty means the
	// single value 0.
	Rhos []float64 `json:"rhos,omitempty"`
	// Lazy selects the lazy variant for every cell.
	Lazy bool `json:"lazy,omitempty"`
	// Start is the start vertex / BIPS source for every cell.
	Start int `json:"start"`
	// Trials is the number of independent trials per cell.
	Trials int `json:"trials"`
	// Seed is the sweep master seed; every cell campaign carries it, and
	// it also seeds random graph families.
	Seed uint64 `json:"seed"`
	// Workers is the number of trial goroutines per cell worker (<= 0:
	// GOMAXPROCS): the sweep computes on CellWorkers × Workers goroutines,
	// each claiming the next (cell, trial) pair of the open cells as it
	// finishes one. It never affects results, only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// CellWorkers bounds how many cells are open at once — admitted
	// (compiled) but not yet committed — and multiplies Workers into the
	// sweep's goroutine count (<= 0: 1, i.e. one cell at a time; cobrad
	// substitutes its -cell-workers default for 0). Like Workers it never
	// affects results, only wall-clock time and how many cells' campaigns
	// and buffered results are held at once.
	CellWorkers int `json:"cell_workers,omitempty"`
	// MaxRounds caps a single trial (0: library default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Priority orders the cobrad job queue (higher first; ties in
	// submission order). Every cell inherits the sweep's priority, so a
	// cell resubmitted as a standalone campaign queues like its sweep
	// did. Never affects results; the library Run path ignores it.
	Priority int `json:"priority,omitempty"`
	// Deadline, when non-empty, is an RFC3339 timestamp by which the
	// sweep job must have started; a sweep still queued past it is failed
	// with the terminal state "expired". The deadline is a job-level
	// property: it is not copied into cell specs. The library Run path
	// ignores it.
	Deadline string `json:"deadline,omitempty"`
}

// DeadlineTime parses the sweep deadline; the zero time means none. A
// campaign's deadline is checked as its one-cell sweep's.
func (s SweepSpec) DeadlineTime() (time.Time, error) {
	if s.Deadline == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, s.Deadline)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: deadline must be RFC3339 (like 2026-01-02T15:04:05Z), got %q", ErrInput, s.Deadline)
	}
	return t, nil
}

// rhos returns the rho axis with the empty default applied.
func (s SweepSpec) rhos() []float64 {
	if len(s.Rhos) == 0 {
		return []float64{0}
	}
	return s.Rhos
}

// CellCount returns the number of cells the sweep expands to.
func (s SweepSpec) CellCount() int {
	return len(s.Graphs) * len(s.Processes) * len(s.Branches) * len(s.rhos())
}

// CellIndex returns the cell index of the grid point (gi, pi, bi, ri):
// row-major with graphs outermost, rhos innermost. Coordinates are not
// range-checked; combine with CellCoords for the round-trip property
// (sweep_index_test.go).
func (s SweepSpec) CellIndex(gi, pi, bi, ri int) int {
	return ((gi*len(s.Processes)+pi)*len(s.Branches)+bi)*len(s.rhos()) + ri
}

// CellCoords inverts CellIndex: the grid coordinates of cell c. The
// graph coordinate gi = c / (cells per graph) is non-decreasing in c, so
// iterating cells in index order visits each graph's cells as one
// contiguous block — the admission-order guarantee the trial loop relies
// on for single compilation per graph.
func (s SweepSpec) CellCoords(c int) (gi, pi, bi, ri int) {
	nr := len(s.rhos())
	ri = c % nr
	c /= nr
	bi = c % len(s.Branches)
	c /= len(s.Branches)
	pi = c % len(s.Processes)
	gi = c / len(s.Processes)
	return gi, pi, bi, ri
}

// Validate checks every axis and scalar without building any graph.
// Axis entries must be valid and pairwise distinct (graphs by canonical
// form), so each cell is a distinct (spec, config) point of the grid.
func (s SweepSpec) Validate() error {
	if len(s.Graphs) == 0 || len(s.Processes) == 0 || len(s.Branches) == 0 {
		return fmt.Errorf("%w: sweep needs at least one graph, process and branch", ErrInput)
	}
	seenGraph := make(map[string]string, len(s.Graphs))
	for _, spec := range s.Graphs {
		canon, err := graphspec.Canonical(spec)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrInput, err)
		}
		if prev, dup := seenGraph[canon]; dup {
			return fmt.Errorf("%w: duplicate graph axis entries %q and %q", ErrInput, prev, spec)
		}
		seenGraph[canon] = spec
	}
	seenProc := make(map[string]bool, len(s.Processes))
	for _, proc := range s.Processes {
		p := strings.ToLower(proc)
		switch p {
		case "cobra", "bips":
		default:
			return fmt.Errorf("%w: process must be cobra or bips, got %q", ErrInput, proc)
		}
		if seenProc[p] {
			return fmt.Errorf("%w: duplicate process axis entry %q", ErrInput, proc)
		}
		seenProc[p] = true
	}
	for _, b := range s.Branches {
		for _, rho := range s.rhos() {
			if err := engine.ValidateBranching(ErrInput, b, rho); err != nil {
				return err
			}
		}
	}
	seenBranch := make(map[int]bool, len(s.Branches))
	for _, b := range s.Branches {
		if seenBranch[b] {
			return fmt.Errorf("%w: duplicate branch axis entry %d", ErrInput, b)
		}
		seenBranch[b] = true
	}
	seenRho := make(map[float64]bool, len(s.rhos()))
	for _, rho := range s.rhos() {
		if seenRho[rho] {
			return fmt.Errorf("%w: duplicate rho axis entry %v", ErrInput, rho)
		}
		seenRho[rho] = true
	}
	if s.Start < 0 {
		return fmt.Errorf("%w: start must be >= 0, got %d", ErrInput, s.Start)
	}
	if s.Trials < 1 {
		return fmt.Errorf("%w: trials must be >= 1, got %d", ErrInput, s.Trials)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("%w: max_rounds must be >= 0, got %d", ErrInput, s.MaxRounds)
	}
	if _, err := s.DeadlineTime(); err != nil {
		return err
	}
	return nil
}

// Cells expands the sweep into its ordered grid of campaign specs (see
// the cell-ordering contract above). Cell c of a valid sweep satisfies
// Cells()[c].Validate() == nil, and running it as a standalone campaign
// reproduces the sweep cell byte for byte.
func (s SweepSpec) Cells() []Spec {
	n := s.CellCount()
	rhos := s.rhos()
	cells := make([]Spec, n)
	for c := 0; c < n; c++ {
		gi, pi, bi, ri := s.CellCoords(c)
		cells[c] = Spec{
			Graph:     s.Graphs[gi],
			Process:   strings.ToLower(s.Processes[pi]),
			Branch:    s.Branches[bi],
			Rho:       rhos[ri],
			Lazy:      s.Lazy,
			Start:     s.Start,
			Trials:    s.Trials,
			Seed:      s.Seed,
			Workers:   s.Workers,
			MaxRounds: s.MaxRounds,
			Priority:  s.Priority, // cells inherit the sweep's priority
		}
	}
	return cells
}

// campaignSweep is the one-cell sweep a cobrad campaign job runs as. Its
// cell is the campaign's Spec with Process lower-cased and Deadline, a
// job-level field, dropped; Compile ignores both differences, so the
// cell's results are the campaign's own, byte for byte.
func campaignSweep(spec Spec) SweepSpec {
	return SweepSpec{
		Graphs:    []string{spec.Graph},
		Processes: []string{spec.Process},
		Branches:  []int{spec.Branch},
		Rhos:      []float64{spec.Rho},
		Lazy:      spec.Lazy,
		Start:     spec.Start,
		Trials:    spec.Trials,
		Seed:      spec.Seed,
		Workers:   spec.Workers,
		MaxRounds: spec.MaxRounds,
		Priority:  spec.Priority,
		Deadline:  spec.Deadline,
	}
}

// CellResult is one trial measurement tagged with its cell index; the
// embedded TrialResult fields are flattened on the wire (the NDJSON line
// format of GET /v1/sweeps/{id}/results).
type CellResult struct {
	Cell int `json:"cell"`
	TrialResult
}

// CellSummary is the per-cell aggregate row of a sweep: the cell's grid
// coordinates plus its online rounds summary. Phase is filled only by
// the cobrad status endpoint (see CellPhase, while the sweep is in
// flight); library Run results leave it empty.
type CellSummary struct {
	Cell      int        `json:"cell"`
	Graph     string     `json:"graph"`
	Process   string     `json:"process"`
	Branch    int        `json:"branch"`
	Rho       float64    `json:"rho"`
	Phase     CellPhase  `json:"phase,omitempty"`
	Aggregate *Aggregate `json:"aggregate,omitempty"`
}

// Sweep is a prepared sweep: the expanded cell grid plus the shared graph
// cache every cell compiles against. Cell campaigns
// are compiled lazily, at admission time during Run, in cell-index order
// — overlapping graph construction with earlier cells' trials and
// keeping the single-compile-per-graph guarantee even at cache
// capacity 1 (each graph's cells are admitted as one contiguous block).
type Sweep struct {
	spec      SweepSpec
	cellSpecs []Spec
	cells     []*Campaign // compiled at admission; cells[c] set once c ran
	cache     *Cache

	// OnCellPhase, when set before Run, observes each cell's lifecycle
	// (queued → running at admission → done at commit). It may be invoked
	// concurrently for different cells; calls for one cell are ordered.
	OnCellPhase func(cell int, phase CellPhase)

	// Remote, when set before Run, executes cells somewhere other than
	// this process: instead of compiling and running cell campaigns
	// locally, the trial loop calls Remote(ctx, cell, spec, from, deliver)
	// for each admitted cell — one claim per cell, because a lease covers a
	// cell — and expects the cell's trials [from, Trials) delivered in
	// trial order. The sweep still folds each delivered
	// result into its own per-cell aggregate in the exact order the local
	// path would (deliver, then fold), so summaries — and, through the
	// reorder buffer, the merged result stream — are bit-identical to a
	// local run. Remote must not return until the cell is complete (nil)
	// or abandoned (error / ctx cancelled). This is the seam the fleet
	// coordinator plugs into (see internal/fleet).
	Remote func(ctx context.Context, cell int, spec Spec, from int, deliver func(TrialResult)) error

	// Observe-only trial-loop instruments, set by the cobrad server
	// before Run (nil for library use = no-op). They never influence the
	// schedule or the delivered stream.
	stalls   *obs.Counter
	reorder  *obs.Gauge
	cellWall *obs.Histogram
}

// CompileSweep validates spec and prepares its cell grid. Cell campaigns
// compile during Run, at admission: cells sharing a graph spec share one
// compiled graph — with a caller-provided cache each distinct graph is
// built at most once across the sweep *and* every other campaign using
// that cache; with a nil cache the sweep creates a private cache sized to
// its own graph axis, preserving the single-compile guarantee
// sweep-locally.
func CompileSweep(spec SweepSpec, cache *Cache) (*Sweep, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewCache(len(spec.Graphs))
	}
	cellSpecs := spec.Cells()
	return &Sweep{
		spec:      spec,
		cellSpecs: cellSpecs,
		cells:     make([]*Campaign, len(cellSpecs)),
		cache:     cache,
	}, nil
}

// Spec returns the sweep specification.
func (sw *Sweep) Spec() SweepSpec { return sw.spec }

// Cells returns the cell campaigns in cell-index order. Campaigns are
// compiled at admission during Run: after a successful Run every entry is
// non-nil; before one, entries are nil.
func (sw *Sweep) Cells() []*Campaign { return sw.cells }

// CacheStats exposes the sweep's graph-cache counters (the caller's cache
// when one was provided).
func (sw *Sweep) CacheStats() (hits, misses int64, size int) { return sw.cache.Stats() }

// Run executes the sweep and returns the per-cell summaries. Completed
// trials are delivered to onResult (may be nil) in strict (cell, trial)
// order, each before it is folded into its cell's aggregate, regardless
// of the order trials finish in. Spec.CellWorkers × Spec.Workers
// goroutines claim (cell, trial) pairs in that order from the open
// cells, of which there are at most Spec.CellWorkers (<= 0: one);
// neither knob affects results, only wall-clock time. Cells are admitted
// — compiled through the shared cache — strictly in cell-index order,
// and at most CellWorkers cells hold compiled campaigns or buffered
// results at once (see cellsched.go). A remote cell (Remote) is one
// claim. Cancel ctx to abort; the first failure in (cell, trial) order
// stops the sweep. A Sweep must not be run concurrently with itself.
func (sw *Sweep) Run(ctx context.Context, onResult func(CellResult)) ([]CellSummary, error) {
	return sw.RunFrom(ctx, 0, nil, onResult)
}

// RunFrom executes the sweep's tail, flat results [from, CellCount ×
// Trials), assuming the first `from` results of the flattened (cell,
// trial) stream were already delivered — a resumed job's committed
// journal prefix. Result m of the flat stream is trial m%Trials of cell
// m/Trials, so the resume point splits into a head cell (resumed
// mid-cell at trial m%Trials) and fully-replayed cells before it,
// whose summaries are rebuilt from prefix rather than recomputed.
// prefix[c], for each replayed cell c (< from/Trials, plus the head cell
// when it resumes mid-cell), must hold the fold of exactly that cell's
// replayed trials in trial order; entries past the head cell are
// ignored. Determinism makes the tail — and therefore replay + RunFrom —
// byte-identical to the uninterrupted stream. Run is
// RunFrom(ctx, 0, nil, onResult).
func (sw *Sweep) RunFrom(ctx context.Context, from int, prefix []*stats.Online, onResult func(CellResult)) ([]CellSummary, error) {
	n := len(sw.cellSpecs)
	total := n * sw.spec.Trials
	if from < 0 || from > total {
		return nil, fmt.Errorf("%w: resume point %d outside [0, %d]", ErrInput, from, total)
	}
	fromCell, fromTrial := from/sw.spec.Trials, from%sw.spec.Trials
	replayed := fromCell
	if fromTrial > 0 {
		replayed++ // the head cell resumes from a partial prefix
	}
	for c := 0; c < replayed; c++ {
		if c >= len(prefix) || prefix[c] == nil {
			return nil, fmt.Errorf("%w: resume point %d needs prefix aggregates for %d cells, got %d", ErrInput, from, replayed, len(prefix))
		}
	}
	folds := append([]*stats.Online(nil), prefix[:replayed]...)
	if fromTrial > 0 {
		// Clone so a preempt-resume cycle can replay the same prefix fold
		// again without the first attempt's tail in it.
		folds[fromCell] = folds[fromCell].Clone()
	}
	cellWorkers := max(sw.spec.CellWorkers, 1)
	loop := &trialLoop{
		cells:   n,
		trials:  sw.spec.Trials,
		first:   fromCell,
		from:    fromTrial,
		prefix:  folds,
		window:  cellWorkers,
		workers: cellWorkers * trialWorkers(sw.spec.Workers),
		admit:   sw.compileCell,
		trial: func(ws *engine.Workspace, cell, k int) (TrialResult, error) {
			return sw.cells[cell].runTrial(ws, k)
		},
		wrap: func(cell int, err error) error {
			return &cellError{cell: cell, name: cellName(sw.cellSpecs[cell]), err: err}
		},
		onPhase:  sw.OnCellPhase,
		stalls:   sw.stalls,
		reorder:  sw.reorder,
		cellWall: sw.cellWall,
	}
	if sw.Remote != nil {
		// Remote cells need no local graph and are one unit each (a lease
		// covers a cell): admission just claims the window slot, and the
		// loop folds the remotely computed trials in delivery order — the
		// deliver-then-fold sequence of local execution, so aggregates are
		// bit-identical to it.
		loop.admit = nil
		loop.workers = cellWorkers
		loop.remote = func(ctx context.Context, cell, from int, deliver func(TrialResult)) error {
			return sw.Remote(ctx, cell, sw.cellSpecs[cell], from, deliver)
		}
	}
	aggs, err := loop.run(ctx, onResult)
	if err != nil {
		return nil, err
	}
	summaries := make([]CellSummary, n)
	for i, agg := range aggs {
		summaries[i] = cellSummary(i, sw.cellSpecs[i], agg)
	}
	return summaries, nil
}

// compileCell compiles cell c against the shared cache; the trial loop
// calls it under its claim lock, in cell-index order.
func (sw *Sweep) compileCell(c int) error {
	campaign, err := Compile(sw.cellSpecs[c], sw.cache)
	if err != nil {
		return err
	}
	sw.cells[c] = campaign
	return nil
}

func cellSummary(i int, spec Spec, agg *Aggregate) CellSummary {
	return CellSummary{
		Cell:      i,
		Graph:     spec.Graph,
		Process:   spec.Process,
		Branch:    spec.Branch,
		Rho:       spec.Rho,
		Aggregate: agg,
	}
}

// cellError is the failure of one sweep cell, named by its grid
// coordinates. A campaign job, a one-cell sweep, reports the cause alone,
// as a standalone campaign does.
type cellError struct {
	cell int
	name string
	err  error
}

func (e *cellError) Error() string { return fmt.Sprintf("cell %d (%s): %v", e.cell, e.name, e.err) }
func (e *cellError) Unwrap() error { return e.err }

// cellName renders a cell's grid coordinates for error messages and logs.
func cellName(s Spec) string {
	name := fmt.Sprintf("%s %s b=%d", s.Graph, s.Process, s.Branch)
	if s.Rho > 0 {
		name += fmt.Sprintf("+%g", s.Rho)
	}
	return name
}

// SummaryTable renders per-cell summaries as a cross-cell grid: a header
// plus one row of formatted cells per sweep cell, ready for CSV or
// aligned-table output (and the JSON body of GET /v1/sweeps/{id}/table).
func SummaryTable(cells []CellSummary) (header []string, rows [][]string) {
	header = []string{"cell", "graph", "process", "branch", "rho",
		"trials", "mean", "median", "q25", "q75", "min", "max", "std"}
	rows = make([][]string, 0, len(cells))
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, c := range cells {
		row := []string{
			strconv.Itoa(c.Cell), c.Graph, c.Process,
			strconv.Itoa(c.Branch), strconv.FormatFloat(c.Rho, 'g', -1, 64),
		}
		if c.Aggregate != nil {
			r := c.Aggregate.Rounds
			row = append(row, strconv.Itoa(c.Aggregate.Completed),
				f(r.Mean), f(r.Median), f(r.Q25), f(r.Q75), f(r.Min), f(r.Max), f(r.Std))
		} else {
			row = append(row, "0", "", "", "", "", "", "", "")
		}
		rows = append(rows, row)
	}
	return header, rows
}
