// Package cobra is a library for simulating and analysing the
// coalescing-branching random walk (COBRA) and its dual epidemic process
// BIPS on undirected graphs, reproducing
//
//	Cooper, Radzik, Rivera — "Improved Cover Time Bounds for the
//	Coalescing-Branching Random Walk on Graphs", SPAA 2017.
//
// # The processes
//
// COBRA spreads one item of information in synchronous rounds: every
// vertex informed in the previous round pushes the item to b neighbours
// chosen uniformly at random with replacement; simultaneous arrivals
// coalesce. With b = 1 it degenerates to the simple random walk; the
// paper's case of interest is b = 2, where the cover time drops from the
// walk's Ω(n log n) to O(m + dmax² log n) on any connected graph and to
// O((r/(1−λ) + r²) log n) on r-regular graphs with eigenvalue gap 1−λ.
//
// BIPS (Biased Infection with Persistent Source) is the epidemic dual:
// every vertex re-samples its infected state each round by contacting b
// random neighbours, and one persistent source stays infected forever.
// Theorem 1.3 of the paper links them exactly:
//
//	P(COBRA from C misses v through round T) =
//	P(BIPS from source v infects no vertex of C at round T).
//
// # What the library provides
//
//   - Seeded, reproducible simulation of COBRA (integer, fractional
//     b = 1+ρ and lazy variants), BIPS (same variants plus the serialised
//     per-step view used by the paper's martingale analysis), the simple
//     and multiple random-walk baselines, and push gossip.
//   - Graph generators for the families in the paper's theorems and
//     examples (complete, cycles, paths, grids, tori, hypercubes, trees,
//     lollipops, barbells, random regular, Erdős–Rényi, ...) plus
//     scalable random families for engine-scale workloads
//     (Barabási–Albert preferential attachment, Watts–Strogatz small
//     world), with exact structural and spectral properties (diameter,
//     bipartiteness, second eigenvalue, conductance).
//   - A pathwise checker for the COBRA–BIPS duality and statistics
//     helpers for scaling-shape analysis.
//
// Everything in this package is a thin facade over the internal
// implementation packages; the facade is the supported API surface.
//
// # Determinism contract
//
// Both processes, COBRA and BIPS, run on one shared frontier kernel
// (internal/engine). The randomness of every (round, vertex) pair derives
// from the run's master seed through a stateless stream hash, so a
// trajectory is a pure function of that seed: independent of the
// sparse/dense frontier representation the kernel picks per round, and of
// how many trials run beside it. The constructors draw the master seed as
// one Uint64 from the RNG you pass. Identical seeds give identical
// per-round sets, cover times, infection traces, and transmission counts.
//
// # Performance notes
//
// The kernel switches representation per round, the direction-optimizing
// BFS idea applied to branching walks. A sparse round iterates an
// active-vertex slice and touches O(|frontier|·b) memory (COBRA),
// respectively O(vol(A_t)) (BIPS), deduplicating in a bitset that is
// all-zero between rounds; a BIPS round with at least n/64 candidates
// evaluates them in vertex order. A dense round scans the frontier
// bitset 64 vertices per word with no member slice at all, and sums its
// bookkeeping — next-frontier popcount, newly-covered count and, for
// BIPS only, the frontier volume its representation rule reads — in the
// pass that stores each word. A dense BIPS round whose uninfected
// vertices have volume at most 3n/4 runs on that complement instead: a
// vertex with no uninfected neighbour joins for certain, so the round
// decides only the neighbours of the uninfected (and, under laziness,
// the uninfected themselves) and writes the next frontier as every
// vertex minus the failures, in Θ(n/64 + vol(V∖A_t)). Either way the
// vertices are decided by one word evaluator per kind (internal/engine's
// cobraWord and bipsWord), a bitset word at a time. Without ρ or
// laziness a vertex's first three draws come in closed form from its
// (round, vertex) stream's splitmix64 words, read on the raw CSR arrays
// and frontier words with no call per vertex: COBRA marks each active
// vertex's targets in the next frontier as it draws them (a dense round
// at b = 2 takes both draws first, tests Lemire's tail once and ORs the
// targets into the next frontier's words), and BIPS takes every
// candidate's first pull in a pass with no branch on its outcome (the
// neighbour's frontier bit and, under it, the degree already loaded go
// straight into the result word and the volume), then pulls 2 and 3 for
// the word's misses only. Those two evaluators are the one place each
// kind's closed-form draw order is written; Lemire's
// rejection tail, draws past the third and the ρ > 0 and lazy kernels
// take one generic per-vertex loop per kind. Every round runs on the
// calling goroutine: the paper's bounds are distributions over
// independent trials, so the batch layer parallelises across trials and
// sweep cells instead. Steady-state rounds are allocation-free under
// workspace reuse, wide ones at 2·10^7 vertices
// (BenchmarkEngineWideDenseRound and BenchmarkEngineWideDenseBipsRound)
// and every configuration of BenchmarkEngineDraws.
//
// BenchmarkEngineDraws times one dense round on RandomRegular(2^18, 3)
// from every other vertex. On a 2-core host, medians of 11 samples
// interleaved row by row, before → with the b = 2 dense COBRA arm:
// COBRA b = 1, 2, 3 in 1.57 → 1.66, 2.84 → 2.30 and 3.29 → 3.51 ms,
// BIPS b = 1, 2, 3 in 3.35 → 3.39, 7.00 → 6.38 and 7.84 → 7.78 ms, and
// the generic rows, b = 2 with ρ = 0.5 or lazy, COBRA 7.21 → 7.08 and
// 6.85 → 6.85, BIPS 17.5 → 17.5 and 14.5 → 14.1 ms. Only the COBRA
// b = 2 row runs new code (faster in 11 of 11 pairs): cobraWord,
// bipsWord, pushFrom and pullsFrom compile to the same instructions as
// before, and the other rows moved by up to 7% either way, the spread
// of single samples on that host. In one binary, alternating over 20
// paired samples, the arm took 0.82 of the per-draw loop's time on this
// frontier (faster in 19 pairs) and 0.85 on a fully active one (16).
// Measured on 2·10^5-vertex workloads
// (BenchmarkEngineCobraWide/-Narrow, BenchmarkEngineBipsWide in
// bench_test.go; medians of 5 samples, same host): fully-active COBRA
// rounds run 3.1× faster dense than sparse on the grid, 3.9× on the
// circulant and 5.7–8.6× on Watts–Strogatz, Barabási–Albert and the
// random 8-regular graph (dense 2.9–4.0 ms); fully-infected BIPS rounds
// run 3.8–5.1× faster dense (2.4–2.8 ms); a single-particle round runs
// about 230× faster sparse (42 ns against 9.7 µs). Single rounds at
// controlled frontier sizes (BenchmarkEngineCrossover, 2^18 vertices,
// b = 2, medians of 5 samples) cross over as follows. COBRA: sparse
// wins up to |C_t| = n/256 on both the random 3-regular graph and the
// 8-regular circulant (sparse/dense 0.90, respectively 0.98), and dense
// wins from n/128 (1.2–1.5× at n/128 to n/64, 1.6–1.9× at n/48). The
// default, dense when |C_t| > n/64 (engine.DefaultDenseDiv), therefore
// runs the rounds in (n/128, n/64] sparse at up to 1.5× a dense round.
// BIPS: sparse wins up to vol(A_t) = n/2 on both graphs (0.72 and 0.82)
// and loses from 0.75n on the random graph (1.23) and 0.67n on the
// circulant (1.14); at vol(A_t) = n a sparse round takes 1.22×,
// respectively 1.33×, as long as a dense one. The default, dense when
// vol(A_t) > n, runs those rounds up to about 1.3× slower than dense
// would. Both defaults stay: which rounds run sparse and which dense is
// part of every trial's result (sparse_rounds, tiled_rounds), so moving
// one changes result bytes, not only speed. The complement round
// against the dense scan, from near-full frontiers whose uninfected
// vertices have volume n/4, n/2, 3n/4, n and 3n/2 (medians of 10
// samples; of 5 in an earlier run): 0.48, 0.68, 1.13, 0.98 and 1.08 of
// the scan's time on the random 3-regular graph (0.46, 0.89, 0.83, 1.16
// and 1.43), and 0.78, 0.75, 0.81, 1.03 and 1.15 on the circulant (0.62,
// 0.66, 1.05, 0.99 and 1.11); at n/4 it takes 1.85 against 3.84 ms on
// the random graph. Those runs time each row's samples back to back and
// disagree at 3n/4 and n, so that band was timed again in one binary
// with the two rounds alternating (20 pairs, twice): the complement
// round took 0.97 and 0.92 of the scan's time at 3n/4 on the random
// graph (faster in 17 and 19 pairs) and 0.81 and 0.73 on the circulant
// (20 and 20), and at n 1.02 and 0.99 on the random graph (8 and 5) and
// 0.90 and 0.91 on the circulant (18 and 15). Adaptive therefore runs
// it up to 3n/4; that choice moves no result byte. Neither default is a public
// knob; the forced modes (internal/engine Params.Mode) exist for the
// repository's own benchmarks and equivalence tests.
//
// A cold job first compiles its graph. graph.Builder keeps the edge set
// in one flat open-addressing table and fills the CSR arrays straight
// from it, with no map and no per-vertex allocation.
// BenchmarkGraphCompile (internal/graphspec; medians of 7 samples of 5
// compiles, 2-core host) compiles rreg:262144:3 in 111 ms with 46
// allocations, ba:65536:3 in 29 ms and torus:128:128 in 1.7 ms, where the
// map-based builder took 267, 101 and 11 ms and made 526,404, 132,138 and
// 33,064 allocations. At 2^20 vertices rreg:1048576:3 compiles in about
// 1.0 s, ba:1048576:3 in 1.4 s and torus:1024:1024 in 0.5 s (one process
// per compile, 3 runs each).
//
// # Batch campaigns and the cobrad service
//
// The paper's theorems are statements about distributions over many
// independent trajectories, so the repository's scale axis is trials, not
// single runs. internal/batch runs campaigns — (graphspec, process
// config, trial count, master seed) — with amortized state: the graph is
// compiled once (and shared via an LRU cache keyed by canonical spec),
// and each worker constructs its per-trial kernels through a reusable
// engine.Workspace, so trials after the first pay no kernel allocations
// (BenchmarkBatchCampaign vs BenchmarkNaiveCoverLoop in internal/batch
// measures the gap on a 2·10^5-vertex workload). The connectivity check
// every kernel needs is memoized by the graph itself, so it runs once
// per graph on every path, the naive loop included.
// Per-trial results stream in trial order while summary statistics
// (mean/quantiles/CI, via the O(1)-memory stats.Online accumulator)
// aggregate on the fly. cmd/cobrad serves the same campaigns over
// HTTP/JSON as a long-running job service.
//
// The workspace-reuse contract: a workspace backs one live kernel at a
// time, and a kernel built through one produces bit for bit the
// trajectory of a freshly-allocated kernel. The campaign determinism
// invariant extends the engine contract one level up: trial k of a
// campaign is a pure function of (spec, config, seed, k) — identical
// across worker counts, graph-cache hits vs misses, and the HTTP vs
// library path. Both are enforced under -race by internal/engine and
// internal/batch tests.
//
// # Parameter sweeps
//
// batch.Sweep lifts campaigns to parameter grids: one submission carries
// axes (graph specs × processes × branch factors × rho values) that
// expand row-major — graphs outermost — into an ordered list of campaign
// cells. One trial loop runs them: CellWorkers × Workers goroutines, each
// with its own engine workspace, claim (cell, trial) pairs in order from
// at most CellWorkers open cells, so a goroutine that finishes a short
// trial moves on instead of idling behind a slow one. Cells are
// *admitted* (compiled through one shared graph cache, so each distinct
// graph builds exactly once — even at cache capacity 1, because a
// graph's cells form one contiguous admission block) strictly in cell
// order, and *commit* through a reorder buffer that delivers results and
// folds aggregates strictly in (cell, trial) order no matter which
// trials finish first; at most CellWorkers cells hold compiled campaigns
// or buffered results at once. Every cell carries the sweep's master
// seed, making each cell byte-identical to submitting its spec as a
// standalone campaign, for every goroutine count. cobrad
// exposes sweeps at POST /v1/sweeps (status with per-cell scheduler
// phases, NDJSON results in (cell, trial) order, and a cross-cell
// summary table) with a -cell-workers default, and runs a campaign job
// as a sweep with one cell, so both kinds share one job path and differ
// only in their wire encoding; cobrasim -sweep prints the same grid as
// an aligned table or CSV; the experiment harness drives its E6 rho
// sweep and E16 Watts–Strogatz beta sweep through the same API, cells
// in parallel.
//
// # Durable jobs, priorities, deadlines
//
// cobrad run with -data journals every accepted job to an append-only
// NDJSON store (internal/store): the spec header is fsynced before the
// submission is acknowledged, result records are appended as trials
// commit, and a terminal record seals finished jobs. A restart replays
// the journals — finished jobs are restored with results served from
// disk, interrupted or queued jobs are requeued — and because a campaign
// is a pure function of (spec, seed, trial), the re-run reproduces the
// lost run byte for byte. The job queue orders by per-job priority
// (higher first, FIFO within a band; sweep cells inherit their sweep's
// priority), and a job whose RFC3339 deadline passes while it is still
// queued fails with the distinct terminal state "expired" instead of
// running. Shutdown leaves no job non-terminal: running jobs abort,
// queued jobs drain to a failed state, and results streams truncated by
// shutdown are flagged by the X-Cobrad-Stream trailer ("aborted" vs
// "complete"). Finished jobs' in-RAM result slices are bounded
// (-retain/-retain-ttl); evicted jobs serve results from their journals.
//
// # Observability
//
// cobrad exposes its internals without perturbing them. GET /metrics
// serves Prometheus text exposition (internal/obs, a dependency-free
// registry) covering every layer: job scheduler (queue depth by priority
// band, admission-wait latency, preemptions), sweep trial loop
// (per-cell wall time, reorder-buffer occupancy, window stalls),
// graph cache (hits/misses/evictions), engine (trials executed, rounds
// by sparse/dense representation), and journal store (appends, fsync
// latency, resume-tail sizes, quarantines). GET /v1/stats returns the
// same counters as one JSON object; GET /v1/{campaigns,sweeps}/{id}/
// events streams a job's lifecycle as server-sent events (state
// transitions with rolling aggregates, per-cell phase changes, and a
// final end event mirroring the X-Cobrad-Stream trailer). Logs are
// structured (log/slog, -log-format text|json) with job ids and states
// as fields, and `cobrad -watch` renders a polling terminal status
// table against a running server.
//
// The observe-only invariant: metrics are atomic instruments updated
// beside the hot path, event streams are read-side followers of the
// same notification channel the results streams use, and nothing ever
// feeds back into scheduling or results — the determinism, conformance,
// and resume byte-identity suites hold with and without observers
// attached.
//
// # Distributed fleets
//
// cobrad scales past one process without changing a byte of output:
// `-role coordinator` turns the server into a lease authority that
// offers job cells — sweep cells, and each campaign as one cell — to
// `-role worker` processes over a journal-backed lease protocol and
// computes no trials itself (heartbeat TTLs on the coordinator's clock;
// a dead worker's lease expires and its cell's uncomputed tail is
// re-leased elsewhere). Workers compute cells through the ordinary campaign
// machinery and stream results back; the coordinator merges them
// through the same reorder buffer as a local run, so the NDJSON
// stream, aggregates, journal, and event streams are byte-for-byte
// identical to single-process execution for every fleet topology —
// including mid-cell worker death (internal/fleet).
//
// # Quick start
//
//	g, err := cobra.RandomRegular(1024, 3, 7)     // 3-regular, seed 7
//	if err != nil { ... }
//	rounds, err := cobra.CoverTime(g, cobra.DefaultConfig(), 0, 42)
//	fmt.Printf("covered %d vertices in %d rounds\n", g.N(), rounds)
//
// See examples/ for runnable scenarios and cmd/experiments for the
// harness that regenerates every experiment table in EXPERIMENTS.md.
//
// # Further reading
//
// ARCHITECTURE.md maps the repository's layers (engine → batch →
// store → obs → fleet), states the determinism contract chain, and
// walks a sweep through every layer in fleet mode. docs/api.md
// documents every HTTP endpoint including the lease protocol and the
// SSE event grammar; docs/metrics.md documents every metric family.
package cobra
