// Package fleet shards cobrad jobs across a coordinator/worker fleet
// with zero change to results.
//
// Campaign determinism makes every job cell a pure, idempotent,
// resumable unit of work: cell c of a sweep is exactly the standalone
// campaign of its Spec, trial k of that campaign is a pure function of
// (spec, k), and the NDJSON encoding of each result is canonical
// json.Marshal output. A campaign job runs as a one-cell sweep, so it
// is leased as cell 0 of its job like any other cell. The fleet layer
// exploits that — it changes WHERE cells compute, never WHAT they
// produce, so the coordinator's merged result stream, aggregates,
// journal, SSE events, and /metrics are byte-for-byte identical to a
// single-process run no matter how many workers participate, which of
// them die, or how many times a cell is re-leased (the fleet
// conformance suite pins this for sweeps and campaigns with 1 worker,
// 3 workers and a worker killed mid-cell, and for forced lease expiry).
//
// # Roles
//
// A Coordinator plugs into the cobrad server as its batch.CellRunner:
// when the sweep's trial loop admits a cell, RunCell registers it as open
// and blocks until workers finish it. Workers hold no server state —
// each is a pull loop (see Worker) that leases one cell at a time over
// HTTP, computes it through the ordinary batch.Campaign path, and
// streams result batches back piggybacked on heartbeat renewals.
//
// # Lease protocol
//
// Three POST endpoints, JSON bodies both ways (see docs/api.md for the
// full wire reference):
//
//	/v1/leases/acquire   {"worker":W} → 200 grant{lease,job,cell,spec,from,ttl_ms}
//	                     or, after a hold, 204 when no cell opened.
//	/v1/leases/renew     {"lease","worker","results":[...]} → 200 {next,ttl_ms}
//	                     heartbeat + result upload in one call.
//	/v1/leases/complete  same body, final tail → 200 {next,done:true}.
//
// An acquire that finds no open cell is held, not polled: the
// coordinator grants it the moment a cell opens or re-opens, and answers
// 204 only when the hold bound (the expiry-scan interval, at most 1s)
// passes or shutdown begins. The worker then acquires again at once.
//
// A grant leases the cell's uncomputed tail [from, trials): from > 0
// after a partial predecessor, so a migrated cell recomputes only what
// the coordinator has not yet accepted — the same RunFrom tail-replay
// contract the journal resume path uses. Batches are applied
// in-order-or-idempotently: results below the coordinator's next
// expected trial are duplicates and skipped, the result at next is
// accepted, and a gap is rejected with 409 {"next":n} telling the
// worker where to resend from. A worker therefore retains its cell's
// results until complete is acknowledged and can replay them after any
// lost response. 410 Gone means the lease no longer exists (expired or
// the cell was withdrawn); the worker abandons the cell and acquires a
// fresh lease — by determinism the retry's bytes are identical, so an
// expiry costs wall-clock time, never correctness.
//
// # Liveness and clocks
//
// Leases carry a TTL measured exclusively on the coordinator's clock:
// a renewal resets expiry to coordinator-now + TTL, and the expiry
// scanner retires leases whose holders missed it. Worker clocks are
// never consulted, so arbitrary clock skew on a worker cannot hold a
// lease hostage or corrupt the stream — a skew-stalled worker's lease
// simply expires and its in-flight results are rejected with 410 (the
// adversarial clock-skew test pins this). Because batches ride on
// renewals, any worker healthy enough to upload results is healthy
// enough to stay leased.
//
// # Durability
//
// With a store attached, every lease transition is journaled to the
// lease log (store.LeaseLog) — grants and retirements fsynced, renewals
// buffered — and replayed on coordinator restart: live leases survive,
// their workers keep renewing and reattach when the recovered sweep
// re-offers their cells, and the fold's one-lease-per-cell invariant
// (fuzzed in FuzzLeaseRecover) guarantees a restart can never
// double-grant a cell that a live worker still holds.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"github.com/repro/cobra/internal/batch"
)

// specHash is the canonical fingerprint of a cell's spec: sha256 over
// its json.Marshal encoding (deterministic for a struct — fixed field
// order, no maps). A grant carries it, the worker echoes it on every
// renew/complete, and the coordinator refuses reattaches and batch
// applies whose hash does not match the open cell's — so a lease
// restored from the log can never feed results computed from one spec
// into a same-keyed cell running another (e.g. after a job-id
// collision across store generations).
func specHash(spec batch.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// batch.Spec is plain data; Marshal cannot fail on it.
		panic("fleet: spec encode: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Protocol wire types. Field names are the wire contract documented in
// docs/api.md; both sides of the protocol live in this package, so the
// structs are shared rather than duplicated.

// acquireRequest is the body of POST /v1/leases/acquire and
// /v1/fleet/register.
type acquireRequest struct {
	Worker string `json:"worker"`
}

// leaseGrant is the 200 body of a successful acquire.
type leaseGrant struct {
	Lease string     `json:"lease"`
	Job   string     `json:"job"`
	Cell  int        `json:"cell"`
	Spec  batch.Spec `json:"spec"`
	// From is the first trial the lease must compute: the cell's trials
	// [From, Spec.Trials). Non-zero when a predecessor lease delivered a
	// partial prefix before dying.
	From int `json:"from"`
	// SpecHash is the canonical hash of Spec (see specHash). The worker
	// echoes it on every renew/complete so the coordinator can prove the
	// results it is accepting were computed from this cell's spec.
	SpecHash string `json:"spec_hash"`
	TTLMilli int64  `json:"ttl_ms"`
}

// batchRequest is the body of renew and complete: a heartbeat carrying
// zero or more results in trial order. Error (complete only) reports a
// worker-side cell failure, failing the cell — and thus the sweep — the
// way a local compute error would.
type batchRequest struct {
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	// SpecHash echoes the grant's spec hash. When present it must match
	// the open cell's hash or the batch is rejected with 410 — empty is
	// tolerated for wire compatibility with pre-hash workers.
	SpecHash string              `json:"spec_hash,omitempty"`
	Results  []batch.TrialResult `json:"results,omitempty"`
	Error    string              `json:"error,omitempty"`
}

// batchResponse answers renew (200), complete (200, Done true), and the
// out-of-order rejection (409). Next is the coordinator's next expected
// trial index — the worker's resend point; -1 means not yet known (the
// lease survived a coordinator restart and its cell has not been
// re-offered, so the worker should hold its results and retry).
type batchResponse struct {
	Next     int   `json:"next"`
	TTLMilli int64 `json:"ttl_ms"`
	Done     bool  `json:"done,omitempty"`
}

// registerResponse answers /v1/fleet/register with the lease TTL the
// worker derives its heartbeat from.
type registerResponse struct {
	TTLMilli int64 `json:"ttl_ms"`
}

// errorResponse is the JSON error body, matching the cobrad server's
// {"error": ...} convention. The lease-specific state is "expired",
// carried with status 410 Gone.
type errorResponse struct {
	Error string `json:"error"`
}

// defaultTTL is the lease TTL when CoordinatorConfig leaves it unset.
const defaultTTL = 10 * time.Second
