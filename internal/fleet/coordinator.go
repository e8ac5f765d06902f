package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/obs"
	"github.com/repro/cobra/internal/store"
)

// CoordinatorConfig configures a fleet coordinator.
type CoordinatorConfig struct {
	// TTL is the lease heartbeat TTL: a lease not renewed within TTL (on
	// the coordinator's clock) is expired and its cell re-leased.
	// Default 10s.
	TTL time.Duration
	// Store, when non-nil, persists the lease table to the store's lease
	// log: every grant/retirement is journaled and replayed on restart,
	// so live leases survive a coordinator crash. nil keeps the lease
	// table in memory only.
	Store *store.Store
	// Logger receives lease lifecycle records. nil uses slog.Default().
	Logger *slog.Logger
	// Registry, when non-nil, registers the cobrad_fleet_* metric
	// families (per-worker counters plus coordinator roll-ups). Pass the
	// batch server's Registry() so they share its /metrics exposition.
	Registry *obs.Registry
}

// cellKey identifies one job cell across the fleet: a sweep's cell, or
// cell 0 of a campaign job.
type cellKey struct {
	job  string
	cell int
}

func (k cellKey) String() string { return fmt.Sprintf("%s/%d", k.job, k.cell) }

// lease is one live lease. Fields are guarded by the coordinator mutex.
type lease struct {
	id       string
	key      cellKey
	worker   string
	from     int    // first trial this lease computes (for the log/status)
	specHash string // canonical hash of the leased cell's spec
	expires  time.Time
}

// openCell is a cell the scheduler has admitted and RunCell is blocked
// on. next is the only progress authority: results below it are
// duplicates, the result at it is accepted, above it is a gap.
type openCell struct {
	key      cellKey
	spec     batch.Spec
	specHash string // canonical hash of spec, computed once at RunCell
	next     int
	trials   int
	deliver  func(batch.TrialResult)
	done     chan error // buffered(1); receives the cell's fate exactly once
	lease    *lease     // nil while unleased (acquirable)
}

// Coordinator is the fleet's lease authority and the cobrad server's
// batch.CellRunner. It is an http.Handler serving the lease protocol
// plus the /v1/fleet status endpoint.
type Coordinator struct {
	ttl time.Duration
	// hold bounds a held acquire: the expiry-scan interval, TTL/4 clamped
	// to [10ms, 1s], so it stays far below a worker client's timeout.
	hold   time.Duration
	log    *store.LeaseLog
	logger *slog.Logger
	met    *fleetMetrics

	mu         sync.Mutex
	now        func() time.Time
	cells      map[cellKey]*openCell
	order      []cellKey // FIFO of admitted cells; lazily compacted
	leases     map[string]*lease
	leaseByKey map[cellKey]*lease
	workers    map[string]time.Time // worker id -> last contact
	nextLease  uint64
	closed     bool
	stopping   bool // BeginShutdown called: withdrawals preserve leases
	// opened is closed and replaced whenever a cell becomes acquirable or
	// shutdown begins, waking every held acquire to rescan the table.
	opened chan struct{}

	stop chan struct{}
	tick *time.Ticker
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator, replaying the store's lease log
// (when a store is attached) so leases granted before a restart and
// still within TTL stay live — their workers keep renewing and reattach
// when the recovered sweep re-offers their cells.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = defaultTTL
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	c := &Coordinator{
		ttl:        ttl,
		logger:     logger,
		now:        time.Now,
		cells:      make(map[cellKey]*openCell),
		leases:     make(map[string]*lease),
		leaseByKey: make(map[cellKey]*lease),
		workers:    make(map[string]time.Time),
		opened:     make(chan struct{}),
		stop:       make(chan struct{}),
	}
	if cfg.Store != nil {
		llog, events, err := cfg.Store.OpenLeaseLog()
		if err != nil {
			return nil, err
		}
		c.log = llog
		for _, ev := range store.LiveLeases(events, c.now()) {
			l := &lease{id: ev.Lease, key: cellKey{ev.Job, ev.Cell}, worker: ev.Worker, from: ev.From, specHash: ev.SpecHash, expires: ev.Expires}
			if _, dup := c.leases[l.id]; dup {
				continue // corrupted log reused an id; keep the first fold
			}
			c.leases[l.id] = l
			c.leaseByKey[l.key] = l
			if n := leaseSeq(l.id); n >= c.nextLease {
				c.nextLease = n
			}
			logger.Info("fleet lease restored", "lease", l.id, "job", l.key.job, "cell", l.key.cell, "worker", l.worker)
		}
	}
	c.met = newFleetMetrics(cfg.Registry, c)
	c.hold = ttl / 4
	if c.hold < 10*time.Millisecond {
		c.hold = 10 * time.Millisecond
	}
	if c.hold > time.Second {
		c.hold = time.Second
	}
	c.tick = time.NewTicker(c.hold)
	c.wg.Add(1)
	go c.expiryLoop()
	return c, nil
}

// leaseSeq recovers the numeric suffix of a lease id so restarted
// coordinators keep allocating fresh ids; 0 for foreign ids.
func leaseSeq(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "l%d", &n); err != nil {
		return 0
	}
	return n
}

// RegisterMetrics registers the cobrad_fleet_* families into reg, for
// wirings where the registry only exists after the coordinator does
// (cmd/cobrad builds the coordinator first so a recovering server
// re-offers cells straight into the restored lease table, then attaches
// the server's registry). No-op when nil or already registered.
func (c *Coordinator) RegisterMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.met == nil && reg != nil {
		c.met = newFleetMetrics(reg, c)
	}
}

// setClock overrides the lease clock (tests only). The expiry ticker
// keeps its real-time cadence but evaluates the injected clock.
func (c *Coordinator) setClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// BeginShutdown marks the coordinator as shutting down: cells withdrawn
// from now on (the batch server's Close cancelling their run contexts)
// keep their leases instead of releasing them, so the journaled lease
// table still holds the live set and a restarted coordinator restores
// it — workers renew across the restart and reattach when the recovered
// sweep re-offers their cells. Held acquires are answered 204 at once,
// and later ones are not held, so an HTTP server's drain never waits on
// them. Call before the batch server's Close; Close the coordinator
// after.
func (c *Coordinator) BeginShutdown() {
	c.mu.Lock()
	c.stopping = true
	c.wakeLocked()
	c.mu.Unlock()
}

// Close answers held acquires 204, stops the expiry scanner and closes
// the lease log. Open cells are the batch server's to cancel
// (Server.Close cancels their run contexts, which releases them through
// RunCell).
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.wakeLocked()
	c.mu.Unlock()
	close(c.stop)
	c.tick.Stop()
	c.wg.Wait()
	if c.log != nil {
		if err := c.log.Close(); err != nil {
			c.logger.Error("fleet lease log close", "err", err)
		}
	}
}

// RunCell implements batch.CellRunner: it opens the cell for leasing
// and blocks until workers complete it (nil), a worker reports a cell
// failure (error), or ctx is cancelled (cell withdrawn, lease
// released). Trials are delivered to deliver in order as batches
// arrive, under the coordinator lock — one goroutine at a time, as the
// scheduler requires.
func (c *Coordinator) RunCell(ctx context.Context, jobID string, cell int, spec batch.Spec, from int, deliver func(batch.TrialResult)) error {
	key := cellKey{jobID, cell}
	oc := &openCell{
		key:      key,
		spec:     spec,
		specHash: specHash(spec),
		next:     from,
		trials:   spec.Trials,
		deliver:  deliver,
		done:     make(chan error, 1),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return fmt.Errorf("fleet: coordinator closed")
	}
	if _, dup := c.cells[key]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fleet: cell %s already open", key)
	}
	c.cells[key] = oc
	c.order = append(c.order, key)
	if l := c.leaseByKey[key]; l != nil {
		// A lease restored from the log: its worker kept renewing across
		// our restart and now reattaches to the re-offered cell — but only
		// if the re-offered spec is the one it was granted. A hash mismatch
		// means the cell key was reused for different work (a job-id
		// collision across store generations, or a tampered journal); the
		// stale lease is retired so its holder's next contact gets 410 and
		// the cell opens for a fresh grant of the real spec.
		if l.specHash != "" && l.specHash != oc.specHash {
			c.logger.Warn("fleet lease rejected on reattach: spec hash mismatch",
				"lease", l.id, "job", jobID, "cell", cell, "worker", l.worker)
			c.dropLeaseLocked(l, store.LeaseRelease)
		} else {
			oc.lease = l
			c.logger.Info("fleet lease reattached", "lease", l.id, "job", jobID, "cell", cell, "worker", l.worker)
		}
	}
	if oc.lease == nil {
		c.wakeLocked()
	}
	c.mu.Unlock()

	select {
	case err := <-oc.done:
		return err
	case <-ctx.Done():
		c.mu.Lock()
		c.withdrawLocked(oc)
		c.mu.Unlock()
		return ctx.Err()
	}
}

// wakeLocked wakes every held acquire to rescan the table: a cell became
// acquirable, or shutdown began. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.opened)
	c.opened = make(chan struct{})
}

// withdrawLocked removes a cell when its run context is cancelled. On a
// preempt or abort the lease is released — its worker's next contact
// gets 410 and stops wasting compute on a dead cell. During shutdown
// (BeginShutdown) the lease survives: the cell will be re-offered by
// the restarted, journal-recovered server, and the lease table must
// still name its live holder.
func (c *Coordinator) withdrawLocked(oc *openCell) {
	delete(c.cells, oc.key)
	l := oc.lease
	if l == nil {
		return
	}
	oc.lease = nil
	if c.stopping {
		return
	}
	c.dropLeaseLocked(l, store.LeaseRelease)
}

// dropLeaseLocked retires a lease from the table and journals why.
func (c *Coordinator) dropLeaseLocked(l *lease, event string) {
	delete(c.leases, l.id)
	if c.leaseByKey[l.key] == l {
		delete(c.leaseByKey, l.key)
	}
	c.appendLog(store.LeaseEvent{Event: event, Lease: l.id, Job: l.key.job, Cell: l.key.cell, Worker: l.worker, From: l.from}, true)
}

// appendLog journals one lease event (no-op without a store). Errors
// are logged, not fatal: the in-memory table stays authoritative for
// this process's lifetime, and a sticky log error only degrades what a
// *restart* can recover.
func (c *Coordinator) appendLog(ev store.LeaseEvent, commit bool) {
	if c.log == nil {
		return
	}
	if err := c.log.Append(ev, commit); err != nil {
		c.logger.Error("fleet lease log append", "event", ev.Event, "lease", ev.Lease, "err", err)
	}
}

// expiryLoop runs the expiry scan on the ticker until Close.
func (c *Coordinator) expiryLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-c.tick.C:
		}
		c.expire()
	}
}

// expire retires leases whose holders missed their TTL, re-opening their
// cells for acquisition at the already-accepted prefix boundary and
// waking held acquires to take them. Expiry is decided solely here, on
// the coordinator's clock: a renewal that arrives before the scan
// observes the deadline revives the lease (the worker proved liveness);
// one that arrives after gets 410.
func (c *Coordinator) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for _, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		if oc := c.cells[l.key]; oc != nil && oc.lease == l {
			oc.lease = nil // cell re-opens at oc.next
			c.wakeLocked()
			c.logger.Warn("fleet lease expired", "lease", l.id, "job", l.key.job, "cell", l.key.cell, "worker", l.worker, "next", oc.next)
		} else {
			c.logger.Warn("fleet lease expired", "lease", l.id, "job", l.key.job, "cell", l.key.cell, "worker", l.worker)
		}
		c.dropLeaseLocked(l, store.LeaseExpire)
		c.met.expired(l.worker)
	}
}

// ServeHTTP routes the lease protocol and fleet status endpoints.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/leases/acquire":
		c.post(w, r, c.handleAcquire)
	case "/v1/leases/renew":
		c.post(w, r, func(w http.ResponseWriter, r *http.Request) { c.handleBatch(w, r, false) })
	case "/v1/leases/complete":
		c.post(w, r, func(w http.ResponseWriter, r *http.Request) { c.handleBatch(w, r, true) })
	case "/v1/fleet/register":
		c.post(w, r, c.handleRegister)
	case "/v1/fleet", "/v1/fleet/":
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		c.handleStatus(w)
	default:
		httpError(w, http.StatusNotFound, "not found")
	}
}

func (c *Coordinator) post(w http.ResponseWriter, r *http.Request, h http.HandlerFunc) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	h(w, r)
}

// maxBody bounds lease request bodies; at ~100 bytes per encoded trial
// result this admits batches tens of thousands of trials deep.
const maxBody = 8 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(into); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// validWorker bounds worker ids: they become metric label values and
// log fields, so keep them short and tame.
func validWorker(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !validWorker(req.Worker) {
		httpError(w, http.StatusBadRequest, "invalid worker id")
		return
	}
	c.mu.Lock()
	_, known := c.workers[req.Worker]
	c.workers[req.Worker] = c.now()
	c.mu.Unlock()
	if !known {
		c.logger.Info("fleet worker registered", "worker", req.Worker)
	}
	writeJSON(w, http.StatusOK, registerResponse{TTLMilli: c.ttl.Milliseconds()})
}

// handleAcquire grants the first acquirable cell. When there is none the
// acquire is held until a cell opens or re-opens, the hold bound passes,
// the request goes away or shutdown begins, and only then answered 204.
// Every wake rescans the table under c.mu, so one waiter wins each cell.
func (c *Coordinator) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !validWorker(req.Worker) {
		httpError(w, http.StatusBadRequest, "invalid worker id")
		return
	}
	hold, cancel := context.WithTimeout(r.Context(), c.hold)
	defer cancel()
	for {
		c.mu.Lock()
		now := c.now()
		c.workers[req.Worker] = now
		// A request that has gone away (a drained or hard-stopped worker)
		// is never granted a lease nobody would hold. A cancellation after
		// the grant but before the response is read still strands one: like
		// a hard stop, that costs one TTL until the expiry scan re-offers
		// the cell, never correctness.
		gone := r.Context().Err() != nil
		if !gone {
			if resp, ok := c.grantLocked(req.Worker, now); ok {
				c.mu.Unlock()
				c.logger.Info("fleet lease granted", "lease", resp.Lease, "job", resp.Job, "cell", resp.Cell, "worker", req.Worker, "from", resp.From)
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
		wake, shut := c.opened, c.stopping || c.closed
		c.mu.Unlock()
		if !gone && !shut {
			select {
			case <-wake:
				continue
			case <-hold.Done():
			}
		}
		w.WriteHeader(http.StatusNoContent)
		return
	}
}

// grantLocked leases the first open, unleased cell in admission order to
// worker, compacting the FIFO of keys whose cells have since closed; ok
// is false when no cell is acquirable. Callers hold c.mu.
func (c *Coordinator) grantLocked(worker string, now time.Time) (resp leaseGrant, ok bool) {
	var grant *openCell
	kept := c.order[:0]
	for _, key := range c.order {
		oc := c.cells[key]
		if oc == nil {
			continue
		}
		kept = append(kept, key)
		if grant == nil && oc.lease == nil {
			grant = oc
		}
	}
	c.order = kept
	if grant == nil {
		return leaseGrant{}, false
	}
	c.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l%06d", c.nextLease),
		key:      grant.key,
		worker:   worker,
		from:     grant.next,
		specHash: grant.specHash,
		expires:  now.Add(c.ttl),
	}
	grant.lease = l
	c.leases[l.id] = l
	c.leaseByKey[l.key] = l
	c.appendLog(store.LeaseEvent{Event: store.LeaseGrant, Lease: l.id, Job: l.key.job, Cell: l.key.cell, Worker: l.worker, From: l.from, SpecHash: l.specHash, Expires: l.expires}, true)
	c.met.granted(worker)
	return leaseGrant{Lease: l.id, Job: grant.key.job, Cell: grant.key.cell, Spec: grant.spec, From: grant.next, SpecHash: grant.specHash, TTLMilli: c.ttl.Milliseconds()}, true
}

// handleBatch serves renew (complete=false) and complete (complete=true):
// extend the lease, apply the carried results in order, and on complete
// settle the cell's fate.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request, completing bool) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	now := c.now()
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	l := c.leases[req.Lease]
	if l == nil {
		c.mu.Unlock()
		httpError(w, http.StatusGone, "expired")
		return
	}
	l.expires = now.Add(c.ttl)
	oc := c.cells[l.key]
	if oc == nil {
		// Restored lease whose cell the recovering server has not
		// re-offered yet: stay live, tell the worker to hold its results.
		c.appendLog(store.LeaseEvent{Event: store.LeaseRenew, Lease: l.id, Job: l.key.job, Cell: l.key.cell, Worker: l.worker, Expires: l.expires}, false)
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, batchResponse{Next: -1, TTLMilli: c.ttl.Milliseconds()})
		return
	}
	if oc.lease != l {
		// Superseded: another lease owns the cell now; this holder is a
		// zombie and must abandon.
		c.dropLeaseLocked(l, store.LeaseRelease)
		c.mu.Unlock()
		httpError(w, http.StatusGone, "expired")
		return
	}
	if req.SpecHash != "" && req.SpecHash != oc.specHash {
		// The holder is computing a different spec than the open cell —
		// its results must never enter this stream. Retire the lease and
		// re-open the cell for a grant of the real spec.
		oc.lease = nil
		c.wakeLocked()
		c.dropLeaseLocked(l, store.LeaseRelease)
		c.mu.Unlock()
		c.logger.Warn("fleet batch rejected: spec hash mismatch",
			"lease", req.Lease, "job", oc.key.job, "cell", oc.key.cell, "worker", req.Worker)
		httpError(w, http.StatusGone, "spec mismatch")
		return
	}
	if completing && req.Error != "" {
		err := fmt.Errorf("fleet: worker %s: %s", req.Worker, req.Error)
		oc.done <- err
		delete(c.cells, oc.key)
		oc.lease = nil
		c.dropLeaseLocked(l, store.LeaseComplete)
		c.mu.Unlock()
		writeJSON(w, http.StatusOK, batchResponse{Next: -1, Done: true})
		return
	}
	// Apply the batch in order, idempotently: duplicates below next are
	// the worker replaying after a lost response; a gap means it resent
	// from too far ahead — 409 tells it where to restart.
	for _, res := range req.Results {
		switch {
		case res.Trial < oc.next:
			continue
		case res.Trial == oc.next:
			if res.Trial >= oc.trials {
				c.mu.Unlock()
				httpError(w, http.StatusBadRequest, fmt.Sprintf("trial %d outside cell of %d trials", res.Trial, oc.trials))
				return
			}
			oc.deliver(res)
			oc.next++
			c.met.received(l.worker)
		default:
			next := oc.next
			c.mu.Unlock()
			writeJSON(w, http.StatusConflict, batchResponse{Next: next, TTLMilli: c.ttl.Milliseconds()})
			return
		}
	}
	if completing {
		if oc.next != oc.trials {
			next := oc.next
			c.mu.Unlock()
			writeJSON(w, http.StatusConflict, batchResponse{Next: next, TTLMilli: c.ttl.Milliseconds()})
			return
		}
		oc.done <- nil
		delete(c.cells, oc.key)
		oc.lease = nil
		c.dropLeaseLocked(l, store.LeaseComplete)
		c.met.completed(req.Worker)
		c.mu.Unlock()
		c.logger.Info("fleet cell completed", "lease", req.Lease, "job", oc.key.job, "cell", oc.key.cell, "worker", req.Worker)
		writeJSON(w, http.StatusOK, batchResponse{Next: oc.trials, Done: true})
		return
	}
	c.appendLog(store.LeaseEvent{Event: store.LeaseRenew, Lease: l.id, Job: l.key.job, Cell: l.key.cell, Worker: l.worker, Expires: l.expires}, false)
	c.met.renewed(l.worker)
	next := oc.next
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, batchResponse{Next: next, TTLMilli: c.ttl.Milliseconds()})
}

// Fleet status (GET /v1/fleet) payloads.
type workerStatus struct {
	ID       string    `json:"id"`
	LastSeen time.Time `json:"last_seen"`
	Leases   int       `json:"leases"`
}

type leaseStatus struct {
	Lease   string    `json:"lease"`
	Job     string    `json:"job"`
	Cell    int       `json:"cell"`
	Worker  string    `json:"worker"`
	Next    int       `json:"next"`
	Expires time.Time `json:"expires"`
}

type fleetStatus struct {
	Workers   []workerStatus `json:"workers"`
	OpenCells int            `json:"open_cells"`
	Leases    []leaseStatus  `json:"leases"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter) {
	c.mu.Lock()
	st := fleetStatus{OpenCells: len(c.cells)}
	perWorker := make(map[string]int)
	for _, l := range c.leases {
		ls := leaseStatus{Lease: l.id, Job: l.key.job, Cell: l.key.cell, Worker: l.worker, Next: -1, Expires: l.expires}
		if oc := c.cells[l.key]; oc != nil {
			ls.Next = oc.next
		}
		st.Leases = append(st.Leases, ls)
		perWorker[l.worker]++
	}
	for id, seen := range c.workers {
		st.Workers = append(st.Workers, workerStatus{ID: id, LastSeen: seen, Leases: perWorker[id]})
	}
	c.mu.Unlock()
	sort.Slice(st.Leases, func(a, b int) bool { return st.Leases[a].Lease < st.Leases[b].Lease })
	sort.Slice(st.Workers, func(a, b int) bool { return st.Workers[a].ID < st.Workers[b].ID })
	writeJSON(w, http.StatusOK, st)
}

// fleetMetrics is the coordinator's observe-only instrument set: one
// counter family per protocol transition labeled by worker, roll-up
// gauges read live from the lease table, and a fleet-wide received
// counter. A nil receiver (no registry) makes every method a no-op,
// matching the repo's nil-safe instrument convention.
type fleetMetrics struct {
	grants    *obs.CounterVec
	renews    *obs.CounterVec
	expires   *obs.CounterVec
	completes *obs.CounterVec
	results   *obs.CounterVec
	remote    *obs.Counter
}

func newFleetMetrics(reg *obs.Registry, c *Coordinator) *fleetMetrics {
	if reg == nil {
		return nil
	}
	m := &fleetMetrics{
		grants:    reg.CounterVec("cobrad_fleet_leases_granted_total", "Cell leases granted, by worker.", "worker"),
		renews:    reg.CounterVec("cobrad_fleet_lease_renewals_total", "Lease heartbeat renewals accepted, by worker.", "worker"),
		expires:   reg.CounterVec("cobrad_fleet_leases_expired_total", "Leases retired for missing their heartbeat TTL, by worker.", "worker"),
		completes: reg.CounterVec("cobrad_fleet_cells_completed_total", "Job cells (sweep cells and campaigns) completed by the fleet, by worker.", "worker"),
		results:   reg.CounterVec("cobrad_fleet_results_received_total", "Remotely computed trial results accepted into the reorder buffer, by worker.", "worker"),
		remote:    reg.Counter("cobrad_fleet_trials_remote_total", "Remotely computed trial results accepted, all workers (coordinator roll-up)."),
	}
	reg.GaugeFunc("cobrad_fleet_workers", "Fleet workers that have ever registered or leased.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.workers))
	})
	reg.GaugeFunc("cobrad_fleet_cells_open", "Job cells (sweep cells and campaigns) currently open for lease or under one.", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.cells))
	})
	reg.GaugeFunc("cobrad_fleet_leases_active", "Live leases (granted, not yet retired).", func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(len(c.leases))
	})
	return m
}

func (m *fleetMetrics) granted(worker string) {
	if m != nil {
		m.grants.With(worker).Inc()
	}
}

func (m *fleetMetrics) renewed(worker string) {
	if m != nil {
		m.renews.With(worker).Inc()
	}
}

func (m *fleetMetrics) expired(worker string) {
	if m != nil {
		m.expires.With(worker).Inc()
	}
}

func (m *fleetMetrics) completed(worker string) {
	if m != nil {
		m.completes.With(worker).Inc()
	}
}

func (m *fleetMetrics) received(worker string) {
	if m != nil {
		m.results.With(worker).Inc()
		m.remote.Inc()
	}
}
