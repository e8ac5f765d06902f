package batch

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/repro/cobra/internal/obs"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/store"
)

// The cobrad job service: an http.Handler exposing campaigns and
// parameter sweeps as asynchronous jobs over HTTP/JSON, backed by a
// bounded priority queue with a campaign-worker pool, the shared LRU
// graph cache, and (optionally) a durable job store. cmd/cobrad wraps it
// in a process; tests drive it through httptest.
//
// A campaign job runs as a sweep with one cell: both kinds share one
// submit path, run loop, status, list and results handler, recovery and
// journal replay, and differ only in their wire encoding (wire.go).
//
// Endpoints:
//
//	POST /v1/campaigns            submit a Spec; 202 + {id, ...} or 400/503.
//	                              ?priority=N and ?deadline=RFC3339
//	                              override the spec's queue fields
//	GET  /v1/campaigns            list job summaries
//	GET  /v1/campaigns/{id}       status + online aggregates
//	GET  /v1/campaigns/{id}/results  per-trial results as NDJSON, streamed
//	                              live (the response follows a running
//	                              campaign until it finishes); the
//	                              X-Cobrad-Stream trailer says whether the
//	                              stream is complete or was aborted
//	GET  /v1/campaigns/{id}/events  live job lifecycle as server-sent
//	                              events: state transitions, progress with
//	                              rolling aggregates, and a final "end"
//	                              event (complete|aborted, mirroring the
//	                              results trailer contract) — see events.go
//	POST /v1/sweeps               submit a SweepSpec; 202 + {id, ...};
//	                              same ?priority=/?deadline= parameters
//	GET  /v1/sweeps               list sweep summaries
//	GET  /v1/sweeps/{id}          status + per-cell online aggregates and
//	                              scheduler phases (queued/running/done/failed)
//	GET  /v1/sweeps/{id}/results  per-cell trial results as NDJSON in
//	                              (cell, trial) order, streamed live
//	GET  /v1/sweeps/{id}/events   the sweep twin of campaign /events, plus
//	                              per-cell phase-change events
//	GET  /v1/sweeps/{id}/table    cross-cell summary grid (header + rows)
//	GET  /v1/stats                process counters as one JSON object:
//	                              trials_executed (this process only —
//	                              journal replay excluded), preemptions,
//	                              queue depth (total and by band), cache
//	                              hits/misses/evictions/size, journal
//	                              appends/fsyncs/quarantines, running jobs,
//	                              backpressure stalls — scrapeless parity
//	                              with /metrics
//	GET  /metrics                 the same counters (plus latency
//	                              histograms) in Prometheus text exposition
//	                              format (internal/obs)
//	GET  /healthz                 liveness
//
// Observability is observe-only: every metric is an atomic instrument
// updated beside the hot path, event streams are read-side followers of
// the same per-job notify channel the results streams use, and nothing
// ever feeds back into scheduling or results — the determinism and
// byte-identity contracts hold with and without scrapers and followers
// attached (the conformance suites compare the un-instrumented library
// path against the instrumented HTTP path byte for byte).
//
// The determinism contract extends over the wire: a campaign submitted
// over HTTP yields exactly the per-trial results and aggregates of
// Compile + Run with the same Spec, and a sweep yields exactly those of
// CompileSweep + Run — cell by cell, byte for byte (service_test.go
// enforces both), for every cell-worker count: a sweep's trials run on
// cell_workers × workers goroutines that claim (cell, trial) pairs from
// up to cell_workers open cells (cell_workers defaults to ServerConfig.
// CellWorkers), behind a reorder buffer that keeps delivery in (cell,
// trial) order. Campaign and sweep jobs share one graph cache, so a
// sweep cell re-using an earlier campaign's graph is a cache hit.
//
// Queueing: jobs wait in a bounded priority queue — higher Spec.Priority
// first, submission order within a band — and a job whose Deadline
// passes while it is still queued is failed with the distinct terminal
// state "expired" instead of running. Neither field affects results,
// only when (or whether) a job runs.
//
// Durability: a Server built with NewServerWith journals every accepted
// job to a Store (see internal/store and persist.go). On startup the
// journals are replayed: finished jobs are restored with results served
// from disk, and interrupted or queued jobs are requeued to *resume* —
// the committed journal prefix is loaded back into RAM and streamed to
// results clients, and only the uncommitted tail is recomputed, which
// the campaign determinism contract makes byte-identical to the tail
// that was lost. With ServerConfig.Preempt, a higher-priority submission
// can checkpoint a running job at its next trial boundary; the
// preempted job requeues and later resumes from its committed prefix
// the same way. The shutdown contract holds with or without a store:
// Close leaves no job non-terminal (running jobs abort, queued jobs are
// drained and marked failed), and truncated result streams are flagged
// by the X-Cobrad-Stream trailer.

// JobState is the lifecycle of a submitted campaign.
type JobState string

const (
	// StateQueued means the job waits for a campaign worker.
	StateQueued JobState = "queued"
	// StateRunning means trials are executing.
	StateRunning JobState = "running"
	// StateDone means every trial completed.
	StateDone JobState = "done"
	// StateFailed means compilation or a trial failed, or the server shut
	// down before the job could finish (Close aborts running jobs and
	// drains queued ones — no job is ever left non-terminal); Error holds
	// the cause. With a Store attached, shutdown-aborted jobs are requeued
	// on the next start and resume from their committed journal prefix.
	StateFailed JobState = "failed"
	// StateExpired means the job's deadline passed while it was still
	// queued; it never ran. A distinct terminal state so clients can tell
	// "missed its deadline" from "ran and failed".
	StateExpired JobState = "expired"
)

// Terminal reports whether the state is final (no further transitions).
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateExpired
}

// ServerConfig sizes the service.
type ServerConfig struct {
	// CampaignWorkers is how many campaigns run concurrently (default 2).
	CampaignWorkers int
	// CellWorkers is substituted into sweep submissions that leave
	// cell_workers unset or <= 0 (default 2): a sweep keeps that many cells
	// open at once, and its cell_workers × workers goroutines claim trials
	// from them. It never affects results, only wall-clock time.
	CellWorkers int
	// QueueDepth bounds the backlog of queued campaigns; submissions
	// beyond it are rejected with 503 (default 64).
	QueueDepth int
	// CacheSize is the LRU graph cache capacity (default 32).
	CacheSize int
	// MaxTrials bounds a single job's trial count — per-trial results are
	// retained in memory for the results endpoint, so this caps per-job
	// memory (default 1e6; ~64 bytes per trial).
	MaxTrials int
	// RetainResults bounds how many finished jobs keep their per-trial
	// result slices in RAM when a Store is attached: beyond it the oldest
	// finished jobs' slices are evicted — status and aggregates stay in
	// RAM, results are served from the journal byte-for-byte. 0 means the
	// default 256; negative disables the count bound. Without a Store
	// nothing is evicted (the pre-persistence behavior: unbounded RAM).
	RetainResults int
	// RetainTTL additionally evicts a finished job's in-RAM results once
	// the job has been finished this long (0 = no TTL). Enforced by a
	// background retention ticker and opportunistically on terminal
	// transitions, status reads and stream closes, so an idle server
	// releases expired slices without waiting for new work. Requires a
	// Store, like RetainResults.
	RetainTTL time.Duration
	// Preempt enables trial-boundary preemption: when every campaign
	// worker is busy and a submission outranks a running job, the
	// lowest-priority running job is asked to yield at its next result.
	// The victim checkpoints (journal fsync at a trial boundary), requeues
	// at its own priority, and later resumes from its committed prefix —
	// replaying the prefix from disk and executing only the remaining
	// trials, with the full result stream byte-identical to an
	// uninterrupted run (the campaign determinism contract). Off by
	// default; never affects results, only when trials execute.
	Preempt bool
	// Logger receives the server's structured log records (recovery
	// fallbacks, quarantines, journal write failures), each carrying the
	// job id and context fields. nil uses slog.Default(), which cmd/cobrad
	// configures from -log-format.
	Logger *slog.Logger
	// Remote, when non-nil, turns the server into a fleet coordinator:
	// admitted cells — a campaign job's one cell included — are handed to
	// Remote.RunCell instead of being compiled and computed locally, and
	// the remotely computed trials flow through the exact same reorder
	// buffer, journal, aggregates, and streams — byte-identical to
	// local execution by the campaign determinism contract. See
	// internal/fleet for the coordinator implementation.
	Remote CellRunner
}

// CellRunner executes one admitted job cell outside this process. The
// cell's trials [from, spec.Trials) must be delivered in trial order;
// RunCell returns nil only once the cell is complete, an error when it
// failed or was abandoned, and promptly when ctx is cancelled. deliver
// must be called from one goroutine at a time.
type CellRunner interface {
	RunCell(ctx context.Context, jobID string, cell int, spec Spec, from int, deliver func(TrialResult)) error
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.CampaignWorkers < 1 {
		c.CampaignWorkers = 2
	}
	if c.CellWorkers < 1 {
		c.CellWorkers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize < 1 {
		c.CacheSize = 32
	}
	if c.MaxTrials < 1 {
		c.MaxTrials = 1_000_000
	}
	if c.RetainResults == 0 {
		c.RetainResults = 256
	}
	return c
}

// Job is one submitted campaign or sweep and its accumulated results.
// Every job runs as a sweep: a campaign's plan is its one-cell sweep, so
// one run loop, one set of per-cell RAM state and one journal serve both
// kinds, and kind only selects the wire encoding (wire.go).
type Job struct {
	id        string
	kind      store.Kind // wire encoding: campaign or sweep
	spec      Spec       // campaign jobs: the submitted spec, echoed by status
	sweep     SweepSpec  // the plan every job runs
	cellSpecs []Spec     // expanded grid, fixed at submission

	priority int       // queue ordering: higher first, ties by seq
	deadline time.Time // zero = none; expired-in-queue jobs never run
	seq      int       // global submission sequence (FIFO tie-break)
	queuedAt time.Time // last time the job entered the queue (admission-wait metric)
	// journal is held from submission or recovery until terminate seals
	// it; nil without a store (see persist.go).
	journal *store.Journal

	mu          sync.Mutex
	state       JobState
	completed   int             // trials delivered (survives result eviction)
	cellResults []CellResult    // results in (cell, trial) order
	cellOnline  []*stats.Online // live per-cell aggregates
	cellPhases  []CellPhase     // per-cell scheduler phase (see CellPhase)
	cellFinal   []CellSummary   // the run's own summaries, once done
	errMsg      string
	notify      chan struct{} // closed and replaced on every state change
	created     time.Time
	finished    time.Time
	persisted   bool // journal sealed with a terminal record
	evicted     bool // result slices dropped; results served from the journal
	streams     int  // live results streams reading the in-RAM slices
	started     bool // the job has executed trials (this process or a prior one)
	preempt     bool // a higher-priority job asked this one to yield
	preemptions int  // times the job was checkpointed and requeued
}

// newJob builds a queued job of kind running plan; spec is a campaign's
// submitted Spec (zero for a sweep). Callers set deadline, seq and the
// timestamps.
func newJob(id string, kind store.Kind, spec Spec, plan SweepSpec) *Job {
	cells := plan.Cells()
	job := &Job{
		id:         id,
		kind:       kind,
		spec:       spec,
		sweep:      plan,
		cellSpecs:  cells,
		priority:   plan.Priority,
		state:      StateQueued,
		cellOnline: make([]*stats.Online, len(cells)),
		cellPhases: make([]CellPhase, len(cells)),
		notify:     make(chan struct{}),
	}
	for i := range cells {
		job.cellOnline[i] = stats.NewOnline()
		job.cellPhases[i] = CellQueued
	}
	return job
}

// bump wakes every watcher of j. Callers hold j.mu.
func (j *Job) bumpLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// Server is the cobrad service. Create with NewServer (in-memory) or
// NewServerWith (durable), serve it as an http.Handler, and Close it to
// stop the campaign workers.
type Server struct {
	cfg    ServerConfig
	cache  *Cache
	mux    *http.ServeMux
	queue  *jobQueue
	store  Store // nil = in-memory only
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// met is the server's observe-only instrument set (metrics.go),
	// serving /metrics and /v1/stats. met.trials counts trials executed by
	// this process — replayed journal records never increment it, so tests
	// and the CI smoke can assert that a resumed job recomputed only its
	// tail.
	met *serverMetrics

	mu           sync.Mutex
	jobs         map[string]*Job // campaign jobs by id
	sweeps       map[string]*Job // sweep jobs by id
	order        []*Job          // every job in submission order, for the listings
	nextID       int
	seq          int               // queue tie-break sequence (includes recovered jobs)
	finishedJobs []*Job            // terminal persisted jobs in finish order (retention)
	running      map[*Job]struct{} // jobs currently on a campaign worker (preemption)
	clock        func() time.Time  // time source for retention; tests may override
}

// NewServer builds an in-memory service and starts its campaign workers.
// Jobs and results do not survive the process; see NewServerWith.
func NewServer(cfg ServerConfig) *Server {
	s, err := NewServerWith(cfg, nil)
	if err != nil {
		// Unreachable: only store recovery can fail, and there is no store.
		panic(err)
	}
	return s
}

// NewServerWith builds the service over a durable job store (nil st
// behaves exactly like NewServer). Before accepting traffic it replays
// the store: finished jobs are restored — status and aggregates in RAM,
// results served from their journals — and interrupted or queued jobs
// are requeued for a re-run that the campaign determinism contract makes
// byte-identical to the run a crash or shutdown destroyed.
func NewServerWith(cfg ServerConfig, st Store) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheSize),
		mux:     http.NewServeMux(),
		queue:   newJobQueue(cfg.QueueDepth),
		store:   st,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(map[string]*Job),
		sweeps:  make(map[string]*Job),
		running: make(map[*Job]struct{}),
		clock:   time.Now,
	}
	s.met = newServerMetrics(s)
	s.mux.HandleFunc("/v1/campaigns", s.handleJobs(store.KindCampaign))
	s.mux.HandleFunc("/v1/campaigns/", s.handleJob(store.KindCampaign))
	s.mux.HandleFunc("/v1/sweeps", s.handleJobs(store.KindSweep))
	s.mux.HandleFunc("/v1/sweeps/", s.handleJob(store.KindSweep))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.Handle("/metrics", s.met.reg.Handler())
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.store != nil {
		// Attach the journal instruments before recovery so replay and
		// resume I/O (fsyncs, appends, quarantines) are observed too.
		st.SetMetrics(store.Metrics{
			Appends:      s.met.journalAppends,
			FsyncSeconds: s.met.fsync,
			Quarantines:  s.met.quarantines,
		})
		if err := s.recoverJobs(); err != nil {
			cancel()
			return nil, err
		}
	}
	for i := 0; i < cfg.CampaignWorkers; i++ {
		s.wg.Add(1)
		go s.campaignWorker()
	}
	if s.store != nil && cfg.RetainTTL > 0 {
		s.wg.Add(1)
		go s.retentionLoop()
	}
	return s, nil
}

// handleStats serves GET /v1/stats: process-wide execution counters as
// one flat JSON object — parity with /metrics for scrapeless clients
// (the watch mode, shell smokes). trials_executed counts trials computed
// by this process (journal replay excluded), so after a restart it
// measures exactly the recomputed tail; preemptions counts
// checkpoint-and-requeue events. Both endpoints read the same
// instruments, so cobrad_trials_executed_total always equals
// trials_executed here (the CI metrics smoke asserts it).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	hits, misses, size := s.cache.Stats()
	depths := s.queue.depths()
	bands := make(map[string]int, len(depths))
	queued := 0
	for band, n := range depths {
		bands[strconv.Itoa(band)] = n
		queued += n
	}
	s.mu.Lock()
	running := len(s.running)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"trials_executed":     s.met.trials.Value(),
		"preemptions":         s.met.preempts.Value(),
		"queue_depth":         queued,
		"queue_depth_by_band": bands,
		"jobs_running":        running,
		"cache_hits":          hits,
		"cache_misses":        misses,
		"cache_evictions":     s.cache.Evictions(),
		"cache_size":          size,
		"journal_appends":     s.met.journalAppends.Value(),
		"journal_fsyncs":      s.met.fsync.Count(),
		"journal_quarantines": s.met.quarantines.Value(),
		"backpressure_stalls": s.met.stalls.Value(),
		"event_streams":       s.met.eventStreams.Value(),
		"admission_waits":     s.met.admission.Count(),
		"rounds_sparse":       s.met.roundsSparse.Value(),
		"rounds_tiled":        s.met.roundsTiled.Value(),
	})
}

// TrialsExecuted reports how many trials this process computed (replayed
// journal records excluded) — the resume path's "no recomputation"
// assertions key off it.
func (s *Server) TrialsExecuted() int64 { return s.met.trials.Value() }

// Preemptions reports how many checkpoint-and-requeue events occurred.
func (s *Server) Preemptions() int64 { return s.met.preempts.Value() }

// Registry exposes the server's metric registry so sibling subsystems
// (the fleet coordinator) can register their families into the same
// /metrics exposition and /v1/stats gather cycle.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// log returns the server's structured logger (ServerConfig.Logger or the
// process default).
func (s *Server) log() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// setClock overrides the retention time source (tests only).
func (s *Server) setClock(now func() time.Time) {
	s.mu.Lock()
	s.clock = now
	s.mu.Unlock()
}

// retentionLoop enforces RetainTTL on a timer, so expired result slices
// are released even when no job finishes and no client reads — the
// pre-ticker behavior left them in RAM indefinitely on an idle server.
func (s *Server) retentionLoop() {
	defer s.wg.Done()
	interval := s.cfg.RetainTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
			s.mu.Lock()
			s.evictLocked()
			s.mu.Unlock()
		}
	}
}

// touchRetention applies the TTL policy from read paths, so an expired
// job observed by a client is evicted without waiting for the ticker.
func (s *Server) touchRetention() {
	if s.store == nil || s.cfg.RetainTTL <= 0 {
		return
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the service: no new jobs start, running campaigns are
// aborted (StateFailed, cause recorded), and the queue is drained with
// every still-queued job marked failed — watchers always observe a
// terminal state; no job is orphaned in StateQueued. With a Store,
// aborted and drained jobs keep unterminated journals, so the next
// NewServerWith requeues and re-runs them. Safe to call more than once.
func (s *Server) Close() {
	s.queue.close() // stop handing out queued jobs
	s.cancel()      // abort running jobs
	s.wg.Wait()
	for _, job := range s.queue.drain() {
		// No terminal record: recovery requeues it.
		s.terminate(job, StateFailed, "aborted: server shut down before the job started", nil, false)
	}
}

// CacheStats exposes graph-cache counters for diagnostics and tests.
func (s *Server) CacheStats() (hits, misses int64, size int) { return s.cache.Stats() }

func (s *Server) campaignWorker() {
	defer s.wg.Done()
	for {
		job := s.queue.pop()
		if job == nil {
			return // queue closed
		}
		if s.expireJob(job) {
			continue
		}
		s.runJob(job)
	}
}

// expireJob fails a job whose deadline passed while it was queued,
// reporting whether it did. Expiry is checked when a worker picks the
// job up — a job that starts before its deadline runs to completion, and
// a job that already executed trials (a preempted or recovered partial
// job waiting to resume) met its started-by deadline in its first run,
// so it is never expired retroactively.
func (s *Server) expireJob(job *Job) bool {
	job.mu.Lock()
	started := job.started
	job.mu.Unlock()
	if started || job.deadline.IsZero() || time.Now().Before(job.deadline) {
		return false
	}
	s.terminate(job, StateExpired, fmt.Sprintf("deadline %s passed before the job started", job.deadline.Format(time.RFC3339)), nil, true)
	return true
}

// runJob executes one run attempt of a job as a sweep against the
// server's shared graph cache, accumulating results in (cell, trial)
// order and tracking each cell's scheduler phase for the status endpoint.
// A resumed job (a replayed journal prefix, or a preempted first
// attempt) re-enters at the first undelivered (cell, trial): fully
// delivered cells are never re-admitted and the head cell continues
// mid-campaign. A campaign is the one-cell case.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	s.running[job] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.running, job)
		s.mu.Unlock()
	}()

	// Each run attempt gets its own context so preemption can stop this
	// attempt at a trial boundary without touching the server lifetime.
	runCtx, cancelRun := context.WithCancel(s.ctx)
	defer cancelRun()

	job.mu.Lock()
	job.state = StateRunning
	job.started = true
	job.preempt = false
	queuedAt := job.queuedAt
	job.bumpLocked()
	job.mu.Unlock()
	if !queuedAt.IsZero() {
		s.met.admission.Observe(time.Since(queuedAt).Seconds())
	}

	sweep, err := CompileSweep(job.sweep, s.cache)
	if err != nil {
		s.fail(job, err)
		return
	}
	if job.kind == store.KindSweep {
		// Observe-only cell-scheduler instruments, which count sweep cells;
		// library callers of Sweep.Run leave these nil and take the exact
		// same schedule.
		sweep.stalls = s.met.stalls
		sweep.reorder = s.met.reorder
		sweep.cellWall = s.met.cellWall
	}
	sweep.OnCellPhase = func(cell int, phase CellPhase) {
		job.mu.Lock()
		job.cellPhases[cell] = phase
		job.bumpLocked()
		job.mu.Unlock()
	}
	remote := s.cfg.Remote != nil
	if remote {
		jobID := job.id
		sweep.Remote = func(ctx context.Context, cell int, spec Spec, from int, deliver func(TrialResult)) error {
			return s.cfg.Remote.RunCell(ctx, jobID, cell, spec, from, deliver)
		}
	}
	// Resume point: everything already in RAM (replayed journal prefix,
	// or a preempted first attempt's delivered trials) is skipped; the
	// cloned per-cell folds seed RunFrom's aggregates so the final ones
	// match an uninterrupted run bit for bit.
	job.mu.Lock()
	from := job.completed
	// Size the retained results once for the whole job, copying any
	// replayed prefix, instead of growing them an append at a time.
	if total := min(len(job.cellSpecs)*job.sweep.Trials, s.cfg.MaxTrials); cap(job.cellResults) < total {
		results := make([]CellResult, len(job.cellResults), total)
		copy(results, job.cellResults)
		job.cellResults = results
	}
	prefix := make([]*stats.Online, len(job.cellOnline))
	for i, o := range job.cellOnline {
		prefix[i] = o.Clone()
	}
	job.mu.Unlock()
	if from > 0 {
		s.met.resumeTail.Observe(float64(len(job.cellSpecs)*job.sweep.Trials - from))
	}
	lastCell := -1
	cells, err := sweep.RunFrom(runCtx, from, prefix, func(r CellResult) {
		// Journal errors are sticky and reported once, by terminate: a
		// failed write stops persisting, never the run.
		if r.Cell != lastCell {
			// A new cell starts committing: fsync the finished one (the
			// sweep journal's commit boundary).
			_ = job.journal.Commit()
			lastCell = r.Cell
		}
		_ = job.journal.Record(job.result(r))
		if !remote {
			// Coordinator mode: these trials were computed by fleet
			// workers, not this process — the fleet counters receive
			// them; trials_executed keeps its "computed here" meaning.
			s.met.trials.Inc()
			s.met.roundsSparse.Add(int64(r.SparseRounds))
			s.met.roundsTiled.Add(int64(r.TiledRounds))
		}
		job.mu.Lock()
		job.cellResults = append(job.cellResults, r)
		job.completed++
		job.cellOnline[r.Cell].Add(float64(r.Rounds))
		preempt := job.preempt
		job.bumpLocked()
		job.mu.Unlock()
		if preempt {
			// Checkpoint at this trial boundary: fsync the delivered
			// prefix, then stop the attempt. Trials already in flight may
			// still deliver before the scheduler drains; each lands in the
			// journal and RAM alike, keeping the two in lockstep.
			_ = job.journal.Commit()
			cancelRun()
		}
	})
	if err != nil {
		if s.requeuePreempted(job, runCtx) {
			return
		}
		s.fail(job, err)
		return
	}
	for i := range cells {
		cells[i].Phase = CellDone
	}
	s.terminate(job, StateDone, "", cells, true)
}

// fail ends a run attempt that stopped with err. A genuine failure seals
// the journal with a terminal record; a shutdown abort leaves it
// unterminated so the next recovery resumes the job from its committed
// prefix, byte-identical by the campaign determinism invariant.
func (s *Server) fail(job *Job, err error) {
	s.terminate(job, StateFailed, job.failure(err), nil, s.ctx.Err() == nil)
}

// terminate moves job to its terminal state, once. With seal, the
// terminal record is written first (fsync included, outside job.mu), and
// the state becomes visible together with the durable verdict and the
// job's retention entry: a client that observes done, failed or expired
// never finds a job whose journal is not yet sealed or that retention
// cannot evict yet. A seal that fails is logged once; the job still
// shows its terminal state but stays unpersisted, so it is never evicted
// and the next recovery resumes it from its committed prefix. Shutdown
// aborts pass seal false and write no terminal record, so recovery
// requeues them. Cells left running, and every cell of a job that was
// still queued, end failed: no phantom phase outlives the job (cells of
// a running job that were never admitted stay queued — they genuinely
// never started).
func (s *Server) terminate(job *Job, state JobState, errMsg string, cells []CellSummary, seal bool) {
	now := time.Now()
	var err error
	if seal {
		job.mu.Lock()
		completed := job.completed
		job.mu.Unlock()
		err = job.seal(state, completed, now, cells, errMsg)
	} else {
		err = job.journal.Close()
	}
	if err != nil {
		s.log().Error("journal write failed; the next recovery resumes the job from its committed prefix",
			"job", job.id, "state", state, "err", err)
	}
	persisted := seal && job.journal != nil && err == nil
	s.countTerminal(job, state)
	s.mu.Lock()
	defer s.mu.Unlock()
	job.mu.Lock()
	for i, ph := range job.cellPhases {
		if ph == CellRunning || job.state == StateQueued {
			job.cellPhases[i] = CellFailed
		}
	}
	job.state = state
	job.errMsg = errMsg
	job.finished = now
	job.cellFinal = cells
	job.persisted = persisted
	job.bumpLocked()
	job.mu.Unlock()
	if persisted {
		s.finishedJobs = append(s.finishedJobs, job)
		s.evictLocked()
	}
}

// requeuePreempted handles a run attempt that stopped because the job
// was asked to yield: the journal is committed at the checkpoint and
// stays open for the next attempt, and the job goes back in the queue at
// its own priority, state queued. Reports false when the stop was not a
// preemption — genuine failure (runCtx not cancelled, so the yield was
// never checkpointed) or server shutdown — in which case the caller's
// normal error path applies.
func (s *Server) requeuePreempted(job *Job, runCtx context.Context) bool {
	job.mu.Lock()
	if !job.preempt || runCtx.Err() == nil || s.ctx.Err() != nil {
		job.mu.Unlock()
		return false
	}
	job.preempt = false
	job.preemptions++
	job.state = StateQueued
	job.queuedAt = time.Now()
	// Cells whose every trial was delivered are done; the rest wait for
	// the resumed attempt (the head cell re-enters mid-campaign).
	done := job.completed / job.sweep.Trials
	for i := range job.cellPhases {
		if i < done {
			job.cellPhases[i] = CellDone
		} else {
			job.cellPhases[i] = CellQueued
		}
	}
	job.bumpLocked()
	job.mu.Unlock()
	// Commit the trials that delivered after the checkpoint too, so the
	// journal's committed prefix is everything in RAM; the resumed attempt
	// appends straight after it.
	_ = job.journal.Commit()
	s.met.preempts.Inc()
	if !s.queue.push(job, true) {
		// The queue closed during the preemption window: Close's drain ran
		// (or will run) without this job, so terminalize it here exactly
		// like the drain path. The unterminated journal resumes next start.
		s.terminate(job, StateFailed, "aborted: server shut down before the job started", nil, false)
	}
	return true
}

// maybePreempt asks the lowest-priority running job to yield when a
// newly queued submission outranks it and every campaign worker is busy.
// The victim observes the flag at its next delivered trial, checkpoints,
// and requeues — scheduling only; results are never affected.
func (s *Server) maybePreempt(priority int) {
	if !s.cfg.Preempt {
		return
	}
	s.mu.Lock()
	var victim *Job
	if len(s.running) >= s.cfg.CampaignWorkers {
		for job := range s.running {
			if job.priority >= priority {
				continue // priority and seq are immutable after submission
			}
			if victim == nil || job.priority < victim.priority ||
				(job.priority == victim.priority && job.seq > victim.seq) {
				victim = job
			}
		}
	}
	s.mu.Unlock()
	if victim == nil {
		return
	}
	victim.mu.Lock()
	if victim.state == StateRunning && !victim.preempt {
		victim.preempt = true
		victim.bumpLocked()
	}
	victim.mu.Unlock()
}

// handleJobs serves POST (submit) and GET (list) on /v1/campaigns and
// /v1/sweeps.
func (s *Server) handleJobs(kind store.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.submit(w, r, kind)
		case http.MethodGet:
			s.list(w, kind)
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		}
	}
}

// applyQueueParams folds the ?priority= and ?deadline= query parameters
// over the spec's own fields (the query wins) so clients can set queue
// placement without editing the spec body. Validation happens after.
func applyQueueParams(r *http.Request, priority *int, deadline *string) error {
	q := r.URL.Query()
	if v := q.Get("priority"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("bad priority query parameter %q: not an integer", v)
		}
		*priority = p
	}
	if v := q.Get("deadline"); v != "" {
		*deadline = v
	}
	return nil
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request, kind store.Kind) {
	spec, plan, err := s.decodeSubmission(w, r, kind)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, _ := plan.DeadlineTime() // validated above

	// Cheap overload shed before any disk work; push re-checks below.
	if s.queue.full() {
		httpError(w, http.StatusServiceUnavailable, "campaign queue full, retry later")
		return
	}

	s.mu.Lock()
	s.nextID++
	s.seq++
	id := fmt.Sprintf("%c%06d", kind[0], s.nextID) // c000042, s000043: one counter, both kinds
	seq := s.seq
	s.mu.Unlock()
	job := newJob(id, kind, spec, plan)
	job.deadline = deadline
	job.seq = seq
	job.created = time.Now()
	job.queuedAt = job.created

	// The journal header must be durable before the 202: an acknowledged
	// job is never forgotten by a crash. It carries the effective spec
	// (a sweep's cell_workers default already substituted), so a
	// recovered re-run uses the same plan.
	if err := s.createJournal(job); err != nil {
		httpError(w, http.StatusInternalServerError, "persist submission: "+err.Error())
		return
	}

	// Reserve the queue slot before publishing the job: a rejected
	// submission must never be observable (a watcher of a published-then-
	// rolled-back job would hang on a notify that never comes).
	if !s.queue.push(job, false) {
		if job.journal != nil {
			_ = job.journal.Close()
			_ = s.store.Remove(id)
		}
		httpError(w, http.StatusServiceUnavailable, "campaign queue full, retry later")
		return
	}
	s.mu.Lock()
	s.table(kind)[id] = job
	s.order = append(s.order, job)
	s.mu.Unlock()
	s.maybePreempt(job.priority)
	url := route(kind) + id
	w.Header().Set("Location", url)
	body := map[string]string{
		"id":          id,
		"status_url":  url,
		"results_url": url + "/results",
	}
	if kind == store.KindSweep {
		body["table_url"] = url + "/table"
	}
	writeJSON(w, http.StatusAccepted, body)
}

// table is the id index of a kind's jobs. Callers hold s.mu.
func (s *Server) table(kind store.Kind) map[string]*Job {
	if kind == store.KindCampaign {
		return s.jobs
	}
	return s.sweeps
}

func (s *Server) list(w http.ResponseWriter, kind store.Kind) {
	s.mu.Lock()
	out := make([]any, 0, len(s.table(kind)))
	for _, job := range s.order {
		if job.kind != kind {
			continue
		}
		job.mu.Lock()
		out = append(out, job.statusLocked(false))
		job.mu.Unlock()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{string(kind) + "s": out})
}

// handleJob serves /v1/{campaigns,sweeps}/{id}, …/results, …/events and
// (sweeps) …/table.
func (s *Server) handleJob(kind store.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		s.touchRetention()
		id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, route(kind)), "/")
		s.mu.Lock()
		job, ok := s.table(kind)[id]
		s.mu.Unlock()
		if !ok {
			httpError(w, http.StatusNotFound, "no such "+string(kind)+" "+id)
			return
		}
		switch {
		case sub == "":
			job.mu.Lock()
			st := job.statusLocked(true)
			job.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
		case sub == "results":
			s.streamResults(w, r, job)
		case sub == "events":
			s.streamEvents(w, r, job)
		case sub == "table" && kind == store.KindSweep:
			job.mu.Lock()
			st := job.statusLocked(true).(sweepStatus)
			job.mu.Unlock()
			header, rows := SummaryTable(st.CellAggs)
			writeJSON(w, http.StatusOK, map[string]any{"header": header, "rows": rows})
		default:
			httpError(w, http.StatusNotFound, "unknown subresource "+sub)
		}
	}
}

// Results streams end with the HTTP trailer X-Cobrad-Stream so a client
// can tell a complete stream from one truncated by server shutdown: the
// NDJSON body itself stays byte-identical to the job's result records
// (no in-band sentinel), and the trailer carries the verdict.
const (
	// StreamTrailer is the trailer header name.
	StreamTrailer = "X-Cobrad-Stream"
	// StreamComplete means the stream delivered everything the job
	// produced: it followed the job to a terminal state (or replayed a
	// finished journal in full).
	StreamComplete = "complete"
	// StreamAborted means the stream was truncated — the server shut down
	// (or the client went away) before the job reached a terminal state.
	// Reconnect after the restart: recovery re-runs the job and the
	// delivered prefix is a byte-prefix of the recovered stream.
	StreamAborted = "aborted"
)

// streamResults writes the job's results as NDJSON in (cell, trial)
// order — result lines in the job's wire encoding — following a live job
// until it reaches a terminal state. Evicted (or restored-from-disk)
// jobs stream their journal instead: the same bytes, by the journal
// format's construction. The X-Cobrad-Stream trailer seals the stream:
// "complete" after following the job to a terminal state, "aborted" when
// server shutdown (or the client) truncated it.
func (s *Server) streamResults(w http.ResponseWriter, r *http.Request, job *Job) {
	if s.claimStream(w, job) {
		return // served from the journal
	}
	defer s.releaseStream(job)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", StreamTrailer)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	for {
		job.mu.Lock()
		chunk := job.cellResults[sent:] // append-only: the sent prefix never changes
		terminal := job.state.Terminal()
		wake := job.notify
		job.mu.Unlock()

		for _, res := range chunk {
			if err := enc.Encode(job.result(res)); err != nil {
				w.Header().Set(StreamTrailer, StreamAborted)
				return
			}
		}
		sent += len(chunk)
		if flusher != nil && len(chunk) > 0 {
			flusher.Flush()
		}
		if terminal {
			w.Header().Set(StreamTrailer, StreamComplete)
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			w.Header().Set(StreamTrailer, StreamAborted)
			return
		case <-s.ctx.Done():
			w.Header().Set(StreamTrailer, StreamAborted)
			return
		}
	}
}

// claimStream routes the request to the journal when the job's results
// were evicted from RAM; otherwise it registers a live reader (blocking
// eviction for the stream's duration) and reports false.
func (s *Server) claimStream(w http.ResponseWriter, job *Job) bool {
	job.mu.Lock()
	if job.evicted {
		job.mu.Unlock()
		s.streamStored(w, job)
		return true
	}
	job.streams++
	job.mu.Unlock()
	return false
}

func (s *Server) releaseStream(job *Job) {
	job.mu.Lock()
	job.streams--
	job.mu.Unlock()
	if s.store != nil {
		// A deferred eviction may have been waiting on this stream.
		s.mu.Lock()
		s.evictLocked()
		s.mu.Unlock()
	}
}

// streamStored replays a finished job's journal result section: the
// lines on disk are byte-identical to the NDJSON the live stream wrote.
func (s *Server) streamStored(w http.ResponseWriter, job *Job) {
	it, err := s.store.Results(job.id)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "read stored results: "+err.Error())
		return
	}
	defer it.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", StreamTrailer)
	for it.Next() {
		if _, err := w.Write(append(it.Line(), '\n')); err != nil {
			w.Header().Set(StreamTrailer, StreamAborted)
			return
		}
	}
	if it.Err() != nil {
		w.Header().Set(StreamTrailer, StreamAborted)
		return
	}
	w.Header().Set(StreamTrailer, StreamComplete)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
