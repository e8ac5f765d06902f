package batch

import (
	"strconv"
	"sync"

	"github.com/repro/cobra/internal/obs"
)

// serverMetrics is the cobrad process's instrument set: one obs.Registry
// per Server, exposed at GET /metrics in Prometheus text exposition and
// mirrored (as plain integers) by GET /v1/stats. Instrumentation is
// observe-only by construction — every instrument is an atomic counter,
// gauge, or fixed-bucket histogram updated beside the hot path, and
// nothing ever reads one to make a scheduling or result decision — so
// the determinism contracts (campaign, sweep conformance, resume
// byte-identity) hold with scrapes running or not. The library entry
// points (Campaign.Run, Sweep.Run outside a Server) carry nil
// instruments, which no-op; conformance suites compare those paths
// against the instrumented HTTP path byte for byte.
type serverMetrics struct {
	reg *obs.Registry

	// Engine result path.
	trials       *obs.Counter // trials executed by this process (replay excluded)
	roundsSparse *obs.Counter // cobrad_rounds_total{repr="sparse"}
	roundsTiled  *obs.Counter // cobrad_rounds_total{repr="tiled"} (dense rounds)

	// Scheduler.
	jobs      *obs.CounterVec // terminal transitions by kind and state
	admission *obs.Histogram  // queued → running wait
	preempts  *obs.Counter
	queueBand *obs.GaugeVec // depth by priority band, refreshed per scrape

	// Cell scheduler (shared by every sweep the server runs).
	cellWall *obs.Histogram
	reorder  *obs.Gauge
	stalls   *obs.Counter

	// Store.
	journalAppends *obs.Counter
	fsync          *obs.Histogram
	quarantines    *obs.Counter
	resumeTail     *obs.Histogram // trials recomputed when a job resumes

	// Streams.
	eventStreams *obs.Gauge

	mu        sync.Mutex
	seenBands map[int]bool // bands ever exposed, so emptied bands read 0
}

// newServerMetrics registers the full cobrad metric set against s. The
// graph cache, queue depth, and running-job gauges read live state at
// scrape time (Func instruments and the OnGather hook); everything else
// ticks at the event, the compile histogram inside s.cache.
func newServerMetrics(s *Server) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg, seenBands: make(map[int]bool)}

	m.trials = reg.Counter("cobrad_trials_executed_total",
		"Trials computed by this process; journal replay is excluded, so after a restart it counts exactly the resumed tail.")
	rounds := reg.CounterVec("cobrad_rounds_total",
		"Engine rounds executed, by the representation the adaptive kernel chose.", "repr")
	m.roundsSparse = rounds.With("sparse")
	m.roundsTiled = rounds.With("tiled")

	m.jobs = reg.CounterVec("cobrad_jobs_total",
		"Terminal job transitions by kind and final state.", "kind", "state")
	reg.GaugeFunc("cobrad_jobs_running", "Jobs currently on a campaign worker.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.running))
	})
	reg.GaugeFunc("cobrad_queue_depth", "Jobs waiting in the priority queue.", func() int64 {
		return int64(s.queue.size())
	})
	m.queueBand = reg.GaugeVec("cobrad_queue_depth_band",
		"Jobs waiting in the priority queue, by priority band.", "band")
	reg.OnGather(func() {
		depths := s.queue.depths()
		m.mu.Lock()
		defer m.mu.Unlock()
		for band := range m.seenBands {
			if _, live := depths[band]; !live {
				m.queueBand.With(strconv.Itoa(band)).Set(0)
			}
		}
		for band, n := range depths {
			m.seenBands[band] = true
			m.queueBand.With(strconv.Itoa(band)).Set(int64(n))
		}
	})
	m.admission = reg.Histogram("cobrad_admission_wait_seconds",
		"Wait between a job entering the queue (submission, requeue, or recovery) and starting on a worker.",
		obs.ExpBuckets(0.001, 2, 16))
	m.preempts = reg.Counter("cobrad_preemptions_total",
		"Trial-boundary checkpoint-and-requeue events (scheduling only; results are unaffected).")

	m.cellWall = reg.Histogram("cobrad_cell_wall_seconds",
		"Per-cell wall time of a sweep cell, from its first trial claimed to its last trial finished.",
		obs.ExpBuckets(0.001, 2, 16))
	m.reorder = reg.Gauge("cobrad_reorder_buffer_cells",
		"Sweep cells holding trial results that finished before an earlier trial and await in-order delivery.")
	m.stalls = reg.Counter("cobrad_backpressure_stalls_total",
		"Times the sweep admitter waited to open the next cell because all cell_workers window slots were held by uncommitted cells; trials of the open cells are claimed meanwhile.")

	reg.CounterFunc("cobrad_graph_cache_hits_total", "Graph cache hits.", func() int64 {
		hits, _, _ := s.cache.Stats()
		return hits
	})
	reg.CounterFunc("cobrad_graph_cache_misses_total", "Graph cache misses (compiles).", func() int64 {
		_, misses, _ := s.cache.Stats()
		return misses
	})
	reg.CounterFunc("cobrad_graph_cache_evictions_total", "Graphs evicted from the LRU cache.", func() int64 {
		return s.cache.Evictions()
	})
	reg.GaugeFunc("cobrad_graph_cache_entries", "Graphs currently cached.", func() int64 {
		_, _, size := s.cache.Stats()
		return int64(size)
	})
	s.cache.compile = reg.Histogram("cobrad_graph_compile_seconds",
		"Wall time of each graph build a cache miss starts, failed builds included; hits build nothing.",
		obs.ExpBuckets(0.001, 2, 16))

	m.journalAppends = reg.Counter("cobrad_journal_appends_total",
		"Lines appended to job journals (headers, results, terminals).")
	m.fsync = reg.Histogram("cobrad_journal_fsync_seconds",
		"Journal fsync latency at commit boundaries.", obs.ExpBuckets(0.0001, 4, 10))
	m.quarantines = reg.Counter("cobrad_journal_quarantines_total",
		"Journals recovery could not use, renamed to <id>.ndjson.corrupt.")
	m.resumeTail = reg.Histogram("cobrad_resume_tail_trials",
		"Trials left to recompute when a job resumed from its committed journal prefix.",
		obs.ExpBuckets(1, 4, 10))

	m.eventStreams = reg.Gauge("cobrad_event_streams",
		"Live SSE followers on /v1/campaigns/{id}/events and /v1/sweeps/{id}/events.")

	return m
}

// countTerminal ticks the per-kind terminal-transition counter; callers
// invoke it wherever a job reaches a terminal state (done, failed,
// expired, shutdown aborts, queue drains).
func (s *Server) countTerminal(job *Job, st JobState) {
	s.met.jobs.With(string(job.kind), string(st)).Inc()
}
