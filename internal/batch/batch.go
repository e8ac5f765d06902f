// Package batch is the amortized multi-trial simulation subsystem: it
// runs large campaigns of independent COBRA/BIPS trials against a shared
// graph, each compute goroutine keeping one engine workspace, so trials
// after the first pay no graph compilation, no connectivity re-check (the
// graph memoizes it), and no kernel allocations — only the simulation
// itself. It is the library layer under the cobrad job service
// (internal/batch.Server, cmd/cobrad).
//
// # Campaign determinism invariant
//
// The result of trial k of a campaign is a pure function of
// (graph spec, process config, master seed, k):
//
//   - trial k's kernel seed comes from the stream NewStream(Seed, k),
//     exactly the derivation of the naive sim.Runner + core.CoverTime /
//     bips.InfectionTime loop, so the batch path reproduces the library
//     path bit for bit;
//   - worker count, workspace reuse, graph-cache hits vs misses, and the
//     HTTP vs library entry point are all invisible to trial results;
//   - per-trial results are delivered, and aggregated, in trial-index
//     order, so the campaign's aggregate statistics are bit-identical
//     across worker counts too.
//
// Tests in batch_test.go and service_test.go enforce every clause under
// the race detector.
//
// # Parameter sweeps
//
// Sweep (sweep.go) lifts campaigns to grids: one SweepSpec carries axes
// (graph specs × processes × branch factors × rho values) that expand
// row-major into an ordered list of campaign cells, all sharing the
// sweep's scalar fields and master seed. One trial loop (cellsched.go)
// runs them: SweepSpec.CellWorkers × SweepSpec.Workers goroutines claim
// (cell, trial) pairs in order from at most CellWorkers open cells, so a
// goroutine that finishes a short trial moves on to the next open cell
// instead of waiting for a slow one. Cells are admitted (compiled)
// strictly in cell-index order against one shared graph cache, so each
// distinct graph spec compiles exactly once per cache even at capacity
// 1; a reorder buffer delivers results and folds aggregates strictly in
// (cell, trial) order no matter which order trials finish in, and
// commits cells in cell order. A campaign is a one-cell run of the same
// loop. Because every cell carries the sweep seed, each cell is
// byte-identical to submitting its Spec as a standalone campaign, for
// every goroutine count; see sweep.go and cellsched.go for the full
// admission-order and reorder-buffer contract.
//
// # Durability and the shutdown contract
//
// The cobrad service (service.go) optionally persists jobs through a
// Store (persist.go, backed by internal/store): accepted submissions are
// journaled before the 202, results are appended as they commit, and a
// terminal record seals finished jobs. Recovery restores finished jobs
// (results served from the journal — the same bytes the live stream
// wrote) and *resumes* interrupted ones: the committed journal prefix is
// replayed into RAM (Campaign.RunFrom / Sweep.RunFrom pick up at the
// first uncommitted trial), so only the tail is recomputed, and the
// campaign determinism invariant makes replay + tail byte-identical to
// the lost run. Journals recovery cannot use are quarantined to
// <id>.ndjson.corrupt. The queue is a priority heap (Spec.Priority, FIFO
// per band) and Spec.Deadline expires jobs that never started in time
// (terminal state "expired"); with ServerConfig.Preempt, a submission
// that outranks every running job checkpoints the lowest-priority one at
// its next trial boundary and requeues it to resume later — the same
// replay path, so preemption too is invisible in the result bytes.
// Close leaves no job in a non-terminal state — running jobs abort,
// queued jobs are drained and failed — and a results stream truncated by
// shutdown is distinguishable from a complete one by the X-Cobrad-Stream
// trailer. service_shutdown_test.go and service_persist_test.go enforce
// every clause under the race detector.
//
// # Observability (observe-only)
//
// The service instruments every layer through internal/obs (metrics.go):
// scheduler queue depth by priority band, admission-wait and per-cell
// wall-time histograms, reorder-buffer occupancy, window stalls,
// graph-cache hit rates, trials and rounds by frontier representation,
// and the store's append/fsync/quarantine/resume-tail counters — served
// at GET /metrics (Prometheus text exposition) and, as one flat JSON
// object, at GET /v1/stats. Per-job server-sent event streams
// (events.go) follow a job's lifecycle live. The invariant: instruments
// are atomic updates beside the hot path and event streams are read-side
// followers of the per-job notify channel; nothing observable ever feeds
// back into scheduling or results. Library users of Campaign.Run /
// Sweep.Run carry nil instruments (every obs method is nil-receiver
// safe) and take the exact same schedule and bytes — the conformance
// suites compare the two paths directly, and service_obs_test.go hammers
// scrapers and followers against running sweeps under the race detector.
package batch

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/xrand"
)

// ErrRoundLimit flags a trial that hit its round cap before completing;
// it mirrors core.ErrRoundLimit / bips.ErrRoundLimit for the batch path.
var ErrRoundLimit = fmt.Errorf("batch: round limit exceeded")

// Spec describes a campaign: which process to run, on which graph, how
// many trials, and the master seed the whole campaign is a pure function
// of. The JSON field names are the cobrad wire format.
type Spec struct {
	// Graph is a graphspec string ("family:args", see internal/graphspec).
	Graph string `json:"graph"`
	// Process is "cobra" or "bips".
	Process string `json:"process"`
	// Branch is the integer branching factor b >= 1.
	Branch int `json:"branch"`
	// Rho adds a fractional extra branch with probability Rho in [0, 1].
	Rho float64 `json:"rho,omitempty"`
	// Lazy selects the lazy variant (needed on bipartite graphs).
	Lazy bool `json:"lazy,omitempty"`
	// Start is the COBRA start vertex respectively the BIPS source.
	Start int `json:"start"`
	// Trials is the number of independent trials.
	Trials int `json:"trials"`
	// Seed is the master seed; it also seeds random graph families.
	Seed uint64 `json:"seed"`
	// Workers is the number of goroutines the campaign computes on (<= 0:
	// GOMAXPROCS), each claiming the next trial as it finishes one. It
	// never affects results, only wall-clock time.
	Workers int `json:"workers,omitempty"`
	// MaxRounds caps a single trial; 0 means the library default of
	// 64·n·log2(n)+64 rounds (matching core.Config / bips.Config).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Priority orders the cobrad job queue: higher-priority jobs start
	// first; ties run in submission order. Like Workers it never affects
	// results — only when the job runs. The library Run path ignores it.
	Priority int `json:"priority,omitempty"`
	// Deadline, when non-empty, is an RFC3339 timestamp by which the job
	// must have *started*: a job still queued past its deadline is failed
	// with the distinct terminal state "expired" instead of running. A
	// running job is never killed by its deadline. The library Run path
	// ignores it.
	Deadline string `json:"deadline,omitempty"`
}

// DeadlineTime parses the spec deadline; the zero time means none.
func (s Spec) DeadlineTime() (time.Time, error) {
	return parseDeadline(s.Deadline)
}

func parseDeadline(deadline string) (time.Time, error) {
	if deadline == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, deadline)
	if err != nil {
		return time.Time{}, fmt.Errorf("%w: deadline must be RFC3339 (like 2026-01-02T15:04:05Z), got %q", ErrInput, deadline)
	}
	return t, nil
}

// Validate checks everything that can be checked without building the
// graph (the spec syntax included). A campaign is checked as the
// one-cell sweep cobrad runs it as, so every field has one check.
func (s Spec) Validate() error {
	return campaignSweep(s).Validate()
}

// TrialResult is the measurement of one completed trial.
type TrialResult struct {
	// Trial is the trial index in [0, Spec.Trials).
	Trial int `json:"trial"`
	// Rounds is the cover time (COBRA) or infection time (BIPS).
	Rounds int `json:"rounds"`
	// Sent and Coalesced are the COBRA transmission counters (0 for BIPS).
	Sent      int64 `json:"sent,omitempty"`
	Coalesced int64 `json:"coalesced,omitempty"`
	// DenseRounds is always 0. It is kept, in this position, so that old
	// journals replay byte for byte and readers of its key still work.
	// SparseRounds and TiledRounds report how many rounds the adaptive
	// kernel ran sparse and dense, for capacity diagnostics.
	DenseRounds  int `json:"dense_rounds"`
	SparseRounds int `json:"sparse_rounds"`
	TiledRounds  int `json:"tiled_rounds"`
}

// Aggregate is the online summary of a campaign's per-trial round counts.
type Aggregate struct {
	// Completed is how many trials have been folded in so far.
	Completed int `json:"completed"`
	// Rounds summarises the per-trial round counts (quartiles are P²
	// streaming estimates; see stats.Online).
	Rounds stats.Summary `json:"rounds"`
}

// Campaign is a compiled campaign: spec plus the shared graph, ready to
// run any number of times.
type Campaign struct {
	spec Spec
	g    *graph.Graph
}

// Compile validates spec and builds (or fetches from cache, when cache is
// non-nil) its graph. The returned campaign is safe for concurrent Runs.
func Compile(spec Spec, cache *Cache) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.Process = strings.ToLower(spec.Process)
	var g *graph.Graph
	var err error
	if cache != nil {
		g, err = cache.GetOrBuild(spec.Graph, spec.Seed)
	} else {
		g, err = graphspec.Parse(spec.Graph, spec.Seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInput, err)
	}
	if spec.Start >= g.N() {
		return nil, fmt.Errorf("%w: start %d out of range for n=%d", ErrInput, spec.Start, g.N())
	}
	return &Campaign{spec: spec, g: g}, nil
}

// Spec returns the compiled (normalized) spec.
func (c *Campaign) Spec() Spec { return c.spec }

// Graph returns the shared compiled graph.
func (c *Campaign) Graph() *graph.Graph { return c.g }

// maxRounds applies the library-wide default cap (engine.DefaultMaxRounds,
// shared with core.Config and bips.Config) unless the spec overrides it.
func (c *Campaign) maxRounds() int {
	if c.spec.MaxRounds > 0 {
		return c.spec.MaxRounds
	}
	return engine.DefaultMaxRounds(c.g.N())
}

// Run executes the campaign on Spec.Workers goroutines, each claiming the
// next trial as it finishes one (see cellsched.go: a campaign is a
// one-cell run of the sweep's trial loop). Completed trials are delivered
// to onResult (which may be nil) in trial-index order, each before it is
// folded into the returned aggregate. Cancel ctx to abort early; on any
// trial error the campaign stops claiming new trials and returns every
// error that occurred (errors.Join, in trial order).
func (c *Campaign) Run(ctx context.Context, onResult func(TrialResult)) (*Aggregate, error) {
	return c.RunFrom(ctx, 0, nil, onResult)
}

// RunFrom executes the campaign's tail, trials [from, Trials), assuming
// trials [0, from) were already delivered — a resumed job's committed
// journal prefix, or the prefix a preemption checkpointed. Because trial
// k depends only on (spec, config, seed, k), the skipped prefix is
// byte-identical to what a full run would have produced, so
// prefix-replay + RunFrom reproduces the uninterrupted stream exactly.
// online, when non-nil, must hold the fold of exactly that prefix in
// trial order; RunFrom continues folding the tail into it, making the
// returned aggregate bit-identical to the uninterrupted run's (nil
// starts an empty fold — correct only when from is 0). Run is
// RunFrom(ctx, 0, nil, onResult).
func (c *Campaign) RunFrom(ctx context.Context, from int, online *stats.Online, onResult func(TrialResult)) (*Aggregate, error) {
	if from < 0 || from > c.spec.Trials {
		return nil, fmt.Errorf("%w: resume point %d outside [0, %d]", ErrInput, from, c.spec.Trials)
	}
	loop := &trialLoop{
		cells:   1,
		trials:  c.spec.Trials,
		from:    from,
		prefix:  []*stats.Online{online},
		workers: trialWorkers(c.spec.Workers),
		trial: func(ws *engine.Workspace, _, k int) (TrialResult, error) {
			return c.runTrial(ws, k)
		},
	}
	var deliver func(CellResult)
	if onResult != nil {
		deliver = func(r CellResult) { onResult(r.TrialResult) }
	}
	aggs, err := loop.run(ctx, deliver)
	if err != nil {
		return nil, err
	}
	return aggs[0], nil
}

// runTrial runs trial k in ws. The kernel seed is one Uint64 drawn from
// the trial's stream NewStream(Seed, k) — the same derivation as core.New
// / bips.New — so the trajectory matches the non-batch library path
// exactly.
func (c *Campaign) runTrial(ws *engine.Workspace, k int) (TrialResult, error) {
	par := engine.Params{Branch: c.spec.Branch, Rho: c.spec.Rho, Lazy: c.spec.Lazy}
	rng := xrand.StreamValue(c.spec.Seed, uint64(k))
	seed := rng.Uint64()
	var kern *engine.Kernel
	var err error
	if c.spec.Process == "cobra" {
		kern, err = engine.NewCobraWith(ws, c.g, par, []int{c.spec.Start}, seed)
	} else {
		kern, err = engine.NewBipsWith(ws, c.g, par, c.spec.Start, seed)
	}
	if err != nil {
		return TrialResult{}, err
	}
	limit := c.maxRounds()
	for !kern.Complete() {
		if kern.Round() >= limit {
			return TrialResult{}, fmt.Errorf("%w: %d rounds on %s", ErrRoundLimit, kern.Round(), c.g.Name())
		}
		kern.Step()
	}
	return TrialResult{
		Trial:        k,
		Rounds:       kern.Round(),
		Sent:         kern.Sent(),
		Coalesced:    kern.Coalesced(),
		SparseRounds: kern.SparseRounds(),
		TiledRounds:  kern.TiledRounds(),
	}, nil
}
