// Package engine implements the unified adaptive frontier kernel shared by
// the COBRA walk (internal/core) and its BIPS epidemic dual (internal/bips).
//
// Both processes are frontier processes: each round is generated from the
// current active vertex set. COBRA pushes b particles from every active
// vertex; BIPS re-samples every vertex and keeps those that pull from an
// infected neighbour. The kernel runs one round in one of two
// representations and, in Adaptive mode, picks per round — the
// direction-optimizing-BFS idea applied to branching walks:
//
//   - Sparse: the frontier is an active-vertex slice. COBRA pushes from
//     each member and BIPS evaluates the candidate superset N(A_t) ∪
//     {source} (∪ A_t under Lazy); both deduplicate in the round-scratch
//     bitset next, which is all-zero between rounds and becomes the new
//     frontier by a swap. A round touches only O(|frontier|·b) memory
//     (COBRA), respectively O(vol(frontier)) (BIPS) — no Θ(n) scans or
//     resets. A BIPS round with at least n/64 candidates, one per bitset
//     word, evaluates them in vertex order by scanning next's words: the
//     scan costs no more words than there are candidates, and it reads
//     the adjacency arrays and the frontier in address order instead of
//     discovery order. This is the winning shape while the frontier is a
//     small fraction of the graph (early rounds, b = 1 walks, long sparse
//     tails).
//   - Dense: the frontier lives in its bitset and rounds are word-level
//     scans: 64 vertices per fetched word, the frontier count (and for
//     BIPS the volume) and the covered-set fold summed in the pass that
//     stores each word, and no member slice ever materialised. This wins
//     once the frontier spans a constant fraction of the graph (wide
//     mid-phase rounds on expanders and the scale-free families), where
//     the member slices cost more than scanning n/64 words.
//
// A dense BIPS round has two strategies, so BIPS has three in all. The
// scan decides all n vertices. The complement round, which Adaptive runs
// once vol(V∖A_t) ≤ 3n/4 (complementQuarters; late rounds, as A_t fills
// up), decides only N(V∖A_t) (∪ V∖A_t under Lazy): every other vertex
// pulls only infected vertices and joins A_{t+1} for certain. It writes
// A_{t+1} as every vertex minus the candidates that failed, in
// Θ(n/64 + vol(V∖A_t)) — the direction-optimizing idea applied to the
// complement. ForceDense always scans. The sparse/dense split that a
// trial reports (sparse_rounds, tiled_rounds) counts the representation
// rule alone: a complement round is a tiled round.
//
// Each kind has one word evaluator, cobraWord and bipsWord, through which
// every round of every representation decides its vertices, a bitset
// word of them at a time: a dense round passes whole words, BIPS's
// vertex-order sparse round and its complement round pass next's
// candidate words, and the other sparse rounds pass one vertex as a
// one-bit word. A dense round of a closed COBRA kernel (below) at b = 2
// passes its words to cobraWord's b = 2 arm, cobraPairWord, instead.
//
// Determinism contract: the randomness of every (round, vertex) pair is
// drawn from a stateless stream keyed by the master seed,
// xrand.NewStream(seed, round<<32|vertex). A vertex's decisions in a round
// are therefore a pure function of (seed, round, vertex, frontier), so the
// trajectory — every per-round frontier set and derived statistic — is
// identical across representations (sparse, dense, adaptive). It depends
// only on the seed. Each vertex reads its stream in one fixed order: the
// fractional-branch Bernoulli, then per particle or pull the lazy coin
// and Lemire's multiply onto its neighbour list. A kernel with ρ = 0 and
// not Lazy, the paper's plain b-branching process, takes a vertex's first
// three draws in closed form from the stream's splitmix64 words
// (xrand.StreamCounter, StreamWord, Draw1–Draw3), inside the word
// evaluators, on the raw CSR arrays (graph.Graph.CSR) and frontier words
// (bitset.Set.Words), with no call per vertex: COBRA computes each active
// vertex's targets inline and marks them in next — a dense round at
// b = 2 runs the arm cobraPairWord, which takes both draws before it
// tests Lemire's tail once and ORs the targets into next's words — and BIPS
// takes every candidate's first pull in a pass with no branch on its
// outcome, then pulls 2 and 3 for that word's misses only. Those two
// evaluators are the one place each kind's closed-form draw order is
// written. A draw that falls into Lemire's rejection tail (probability
// below deg/2^64), and a fourth draw, leave the evaluator for the kind's
// one fallback, pushFrom or pullsFrom (the b = 2 arm's tail through
// pushTail, which lands draw 0's target first if only draw 1 fell in the
// tail): it reads the stream positioned after the draws already taken
// (xrand.StreamAt) and continues in the generic loop, whose rejection
// loop is xrand.(*RNG).Uint64nTail. ρ > 0 or Lazy kernels
// decide every vertex in that generic loop from a generator built once
// per vertex and round. The choice is made once, at construction, from
// Params. testdata/fingerprints.txt pins the trajectories of every path
// to bytes an earlier kernel wrote, and definition_test.go checks every
// round against a reference built vertex by vertex from the definition.
//
// Every round runs on the calling goroutine. The paper's bounds describe
// distributions over independent trials, so callers parallelise across
// trials and sweep cells (internal/batch, internal/sim), never within a
// round.
//
// The crossover defaults (|C_t| > n/64 for COBRA, vol(A_t) > n for BIPS)
// sit above the single-round crossovers BenchmarkEngineCrossover
// (dense_test.go) measures on two 2^18-vertex graphs; doc.go ("Performance
// notes") gives the measured ranges. Both are result bytes: a trial
// reports how many rounds ran in each representation. complementQuarters,
// the choice between the two dense BIPS strategies, is read off the same
// benchmark's complement rows and moves no byte.
package engine

import (
	"errors"
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/graph"
)

// Errors returned by the kernel constructors.
var (
	ErrConfig       = errors.New("engine: invalid configuration")
	ErrDisconnected = errors.New("engine: graph must be connected")
	ErrStart        = errors.New("engine: invalid start set")
)

// Kind selects the frontier process the kernel simulates.
type Kind int

const (
	// Cobra is the coalescing-branching random walk: every frontier
	// vertex pushes b particles to random neighbours; the targets form
	// the next frontier and accumulate into the covered set.
	Cobra Kind = iota
	// Bips is the epidemic dual: every vertex pulls b random neighbours
	// and joins the next frontier iff one is currently infected; the
	// persistent source is always infected.
	Bips
)

// Mode selects the frontier representation policy.
type Mode int

const (
	// Adaptive switches between sparse and dense per round on the
	// measured crossover; the default and the recommended setting.
	Adaptive Mode = iota
	// ForceSparse always uses the active-slice representation.
	ForceSparse
	// ForceDense always uses the word-scan representation.
	ForceDense
)

// DefaultDenseDiv is the COBRA crossover divisor: a round goes dense when
// |frontier| > n/DefaultDenseDiv. (BIPS goes dense when vol(A_t) > n,
// by the scan or, late, on the complement; see useDense.) Both
// representations pay the same |C_t|·b draws; they differ in the member
// slices a sparse round keeps against the n/64-word scan and fold of a
// dense one. Since the dense
// scan runs the word evaluator, the two cross between n/256 and n/128 on
// both of BenchmarkEngineCrossover's 2^18-vertex graphs (doc.go,
// "Performance notes"), so rounds in (n/128, n/64] run sparse at up to
// 1.5× a dense round. The divisor stays 64: which representation a round
// runs is part of every trial's result (sparse_rounds, tiled_rounds,
// pinned by testdata/fingerprints.txt), so moving it changes result
// bytes.
const DefaultDenseDiv = 64

// DefaultMaxRounds is the shared default cap on a single run over an
// n-vertex graph: 64·n·log2(n)+64 rounds, far above every bound proven in
// the paper, so hitting it signals a stuck process (e.g. non-lazy COBRA
// on a bipartite graph with an unlucky parity) rather than slow covering.
// core.Config, bips.Config and batch campaigns all apply this default;
// keep them on this one definition.
func DefaultMaxRounds(n int) int {
	lg := 1
	for 1<<uint(lg) < n {
		lg++
	}
	return 64*n*lg + 64
}

// Params configures a kernel. Branch/Rho/Lazy have the meaning shared by
// the core and bips packages (the duality requires them to match).
type Params struct {
	// Branch is the integer branching factor b >= 1.
	Branch int
	// Rho adds a fractional extra branch with probability Rho ∈ [0, 1].
	Rho float64
	// Lazy makes each selection stay at the sampling vertex with
	// probability 1/2.
	Lazy bool
	// Mode picks the representation policy (default Adaptive).
	Mode Mode
	// Workers is ignored: every round runs on the calling goroutine.
	//
	// Deprecated: parallelise across trials instead (batch.Spec.Workers,
	// sim.Runner.Workers).
	Workers int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	return ValidateBranching(ErrConfig, p.Branch, p.Rho)
}

// ValidateBranching is the one check of the paper's branching factor
// b = branch + rho: an integer branch >= 1 plus an extra branch taken
// with probability rho ∈ [0, 1] (Section 6's b = 1 + ρ). NaN and ±Inf
// fail. The error wraps sentinel, so each package that takes a branching
// factor (core, bips, duality, exact, batch) reports a bad one under its
// own error value.
func ValidateBranching(sentinel error, branch int, rho float64) error {
	if branch < 1 {
		return fmt.Errorf("%w: branch must be >= 1, got %d", sentinel, branch)
	}
	if !(rho >= 0 && rho <= 1) {
		return fmt.Errorf("%w: rho must be in [0,1], got %v", sentinel, rho)
	}
	return nil
}

// Kernel is one frontier simulation. It is not safe for concurrent use.
type Kernel struct {
	g      *graph.Graph
	kind   Kind
	par    Params
	seed   uint64
	source int // Bips only
	// closed selects the word evaluators' closed-form first draws
	// (cobraWord, bipsWord): ρ = 0 and not Lazy, so a vertex's first
	// draws are its neighbour picks.
	closed bool

	// Frontier state. cur is always authoritative; curList mirrors it
	// when curListOK (maintained by sparse rounds, rebuilt on demand).
	// Both representations maintain frontierN, and for BIPS frontierVol.
	cur         *bitset.Set
	curList     []int32
	curListOK   bool
	frontierN   int
	frontierVol int // BIPS only: Σ deg(v) over A_t; see FrontierVolume

	// Cobra-only cumulative state.
	covered   *bitset.Set
	nCov      int
	sent      int64
	coalesced int64

	round int

	// Round scratch. Invariant (zero-after-fold): between rounds next is
	// all-zero, for both kinds, so no round pays an up-front Θ(n) Reset
	// and sparse rounds can deduplicate in it. The COBRA dense fold zeroes
	// every word it consumes; sparse rounds end with next holding the new
	// frontier and swap it with cur after clearing the old members out of
	// cur; the BIPS dense scan swaps and then resets the old frontier.
	next     *bitset.Set
	newList  []int32
	candList []int32

	sparseRounds int
	denseRounds  int
}

// NewCobra creates a COBRA kernel with initial frontier C_0 = start.
func NewCobra(g *graph.Graph, par Params, start []int, seed uint64) (*Kernel, error) {
	return newCobra(g, par, start, seed, nil)
}

func newCobra(g *graph.Graph, par Params, start []int, seed uint64, ws *Workspace) (*Kernel, error) {
	k, err := newKernel(g, Cobra, par, seed, ws)
	if err != nil {
		return nil, err
	}
	if len(start) == 0 {
		return nil, fmt.Errorf("%w: empty C_0", ErrStart)
	}
	if k.covered == nil { // workspace constructions arrive with a reset set
		k.covered = bitset.New(g.N())
	}
	for _, v := range start {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("%w: vertex %d out of range", ErrStart, v)
		}
		if !k.cur.Contains(v) {
			k.cur.Set(v)
			k.curList = append(k.curList, int32(v))
			k.covered.Set(v)
			k.nCov++
		}
	}
	k.frontierN = len(k.curList)
	k.curListOK = true
	return k, nil
}

// NewBips creates a BIPS kernel with the given persistent source,
// A_0 = {source}.
func NewBips(g *graph.Graph, par Params, source int, seed uint64) (*Kernel, error) {
	return newBips(g, par, source, seed, nil)
}

func newBips(g *graph.Graph, par Params, source int, seed uint64, ws *Workspace) (*Kernel, error) {
	k, err := newKernel(g, Bips, par, seed, ws)
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("%w: source %d out of range", ErrStart, source)
	}
	k.source = source
	k.cur.Set(source)
	k.curList = append(k.curList, int32(source))
	k.frontierN = 1
	k.frontierVol = g.Degree(source)
	k.curListOK = true
	return k, nil
}

func newKernel(g *graph.Graph, kind Kind, par Params, seed uint64, ws *Workspace) (*Kernel, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	// The graph memoizes its connectivity, so only its first kernel pays
	// the O(n+m) traversal.
	if !g.IsConnected() {
		return nil, fmt.Errorf("%w: %s", ErrDisconnected, g.Name())
	}
	n := g.N()
	var k *Kernel
	if ws != nil {
		k = ws.acquire(n, kind)
	} else {
		k = &Kernel{cur: bitset.New(n), next: bitset.New(n)}
	}
	k.g = g
	k.kind = kind
	k.par = par
	k.seed = seed
	k.closed = !(par.Rho > 0) && !par.Lazy
	return k, nil
}

// streamKey is the per-(round, vertex) stream index; identical to the
// keying of the pre-engine parallel processes, whose trajectories the
// kernel preserves exactly.
func streamKey(round, v int) uint64 {
	return uint64(round)<<32 | uint64(uint32(v))
}

// Round returns the number of completed rounds t.
func (k *Kernel) Round() int { return k.round }

// Frontier returns the live current frontier set (C_t for COBRA, A_t for
// BIPS). Read-only.
func (k *Kernel) Frontier() *bitset.Set { return k.cur }

// FrontierCount returns |C_t| respectively |A_t| without a popcount scan.
func (k *Kernel) FrontierCount() int { return k.frontierN }

// FrontierVolume returns Σ_{v ∈ frontier} deg(v) — d(A_t) in the paper's
// Section 3 notation. Every BIPS round maintains it without a rescan,
// since the BIPS representation rule reads it. COBRA rounds do not sum
// it, so for a COBRA kernel it is computed on demand, in O(|C_t|) after a
// sparse round and O(n/64 + |C_t|) after a dense one.
func (k *Kernel) FrontierVolume() int {
	if k.kind == Bips {
		return k.frontierVol
	}
	if !k.curListOK {
		k.ensureList()
	}
	vol := 0
	for _, v := range k.curList {
		vol += k.g.Degree(int(v))
	}
	return vol
}

// Covered returns the cumulative visited set of a COBRA kernel (nil for
// BIPS). Read-only.
func (k *Kernel) Covered() *bitset.Set { return k.covered }

// CoveredCount returns |∪ C_0..C_t| for COBRA kernels.
func (k *Kernel) CoveredCount() int { return k.nCov }

// Complete reports whether the process finished: full coverage for COBRA,
// full infection for BIPS.
func (k *Kernel) Complete() bool {
	if k.kind == Cobra {
		return k.nCov == k.g.N()
	}
	return k.frontierN == k.g.N()
}

// Sent returns the cumulative number of particle transmissions of a COBRA
// kernel (b draws per active vertex per round, plus fractional extras).
func (k *Kernel) Sent() int64 { return k.sent }

// Coalesced returns the cumulative number of COBRA coalescences:
// Sent() − Σ_{t>=1} |C_t|.
func (k *Kernel) Coalesced() int64 { return k.coalesced }

// SparseRounds returns how many completed rounds ran in the sparse
// representation.
func (k *Kernel) SparseRounds() int { return k.sparseRounds }

// TiledRounds returns how many completed rounds ran in the dense
// representation. The name matches batch.TrialResult's tiled_rounds key
// and the repr="tiled" metric label, which old journals and dashboards
// read.
func (k *Kernel) TiledRounds() int { return k.denseRounds }

// InstallFrontier replaces the frontier with the given member set and
// advances the round counter, as if a Step produced it. This is the hook
// for externally-serialised rounds (bips.Process.SerialRound), which draw
// their own randomness; duplicates in members are ignored. For COBRA
// kernels the members fold into the covered set.
func (k *Kernel) InstallFrontier(members []int) {
	if k.curListOK {
		for _, v := range k.curList {
			k.cur.Clear(int(v))
		}
	} else {
		k.cur.Reset()
	}
	k.curList = k.curList[:0]
	vol := 0
	for _, v := range members {
		if k.cur.Contains(v) {
			continue
		}
		k.cur.Set(v)
		k.curList = append(k.curList, int32(v))
		if k.kind == Bips {
			vol += k.g.Degree(v)
		} else if !k.covered.TestAndSet(v) {
			k.nCov++
		}
	}
	k.frontierN = len(k.curList)
	k.frontierVol = vol
	k.curListOK = true
	k.round++
}

// Step advances the kernel by one round in the representation chosen by
// the mode policy: sparse or dense.
func (k *Kernel) Step() {
	if k.useDense() {
		k.denseRounds++
		switch {
		case k.kind == Cobra:
			k.cobraDense()
		case k.useComplement():
			k.bipsComplement()
		default:
			k.bipsDense()
		}
	} else {
		k.sparseRounds++
		if k.kind == Cobra {
			k.cobraSparse()
		} else {
			k.bipsSparse()
		}
	}
	k.round++
}

// useDense applies the representation policy for the upcoming round.
// COBRA round cost scales with |frontier| in both representations (the
// dense scan only saves the member-slice traffic), so it crosses over on
// the frontier fraction. A BIPS sparse round costs Θ(vol(A)) candidate
// construction versus Θ(n) for the dense scan, so it crosses over when
// the frontier volume reaches the vertex count. This rule alone decides
// what the trial counts as sparse and tiled rounds; a dense BIPS round
// then runs the scan or the complement round (useComplement), which
// decide the same vertices.
func (k *Kernel) useDense() bool {
	switch k.par.Mode {
	case ForceSparse:
		return false
	case ForceDense:
		return true
	}
	if k.kind == Cobra {
		return k.frontierN*DefaultDenseDiv > k.g.N()
	}
	return k.frontierVol > k.g.N()
}

// complementQuarters sets the BIPS complement threshold c = 3/4: in
// Adaptive mode a dense BIPS round runs on the complement
// (bipsComplement) when vol(V∖A_t) ≤ c·n. On the frontiers of
// BenchmarkEngineCrossover's complement rows, timed in one binary with
// the two rounds alternating, the complement round was faster than the
// scan at n/2 and 3n/4 on both 2^18-vertex graphs, in at least 17 of 20
// pairs, and at n it lost on the random 3-regular one (doc.go,
// "Performance notes"). It moves no result byte: the round decides what
// the scan decides, and it counts as a tiled round.
const complementQuarters = 3

// useComplement reports whether a dense BIPS round runs on the
// complement. ForceDense keeps the full scan, so the mode-agreement
// tests compare the two.
func (k *Kernel) useComplement() bool {
	return k.par.Mode == Adaptive && 4*(k.g.DegreeSum()-k.frontierVol) <= complementQuarters*k.g.N()
}

// ensureList rebuilds the member mirror from the authoritative bitset
// after a dense round invalidated it.
func (k *Kernel) ensureList() {
	k.curList = k.curList[:0]
	k.cur.ForEach(func(v int) { k.curList = append(k.curList, int32(v)) })
	k.curListOK = true
}
