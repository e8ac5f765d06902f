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
//     scans: 64 vertices per fetched word, with the per-word fetch hoisted
//     out of the per-vertex draw loop, the frontier count, volume and
//     covered-set fold summed in the pass that stores each word, and no
//     member slice ever materialised. This wins once the frontier spans a
//     constant fraction of the graph (wide mid-phase rounds on expanders
//     and the scale-free families), where the member slices cost more
//     than scanning n/64 words.
//
// Determinism contract: the randomness of every (round, vertex) pair is
// drawn from a stateless stream keyed by the master seed,
// xrand.NewStream(seed, round<<32|vertex). A vertex's decisions in a round
// are therefore a pure function of (seed, round, vertex, frontier), so the
// trajectory — every per-round frontier set and derived statistic — is
// identical across representations (sparse, dense, adaptive). It depends
// only on the seed. Each vertex draws from its stream in one fixed order,
// inline (push for COBRA, pullsInfected for BIPS): the fractional-branch
// Bernoulli, then per particle or pull the lazy coin and Lemire's
// multiply onto its neighbour list. A kernel with ρ = 0 and not Lazy, the
// paper's plain b-branching process, takes a vertex's first three draws
// in closed form from the stream's splitmix64 words
// (xrand.StreamCounter, StreamWord, Draw1–Draw3), so at b ≤ 3 it builds
// no generator: a BIPS pull that hits at once costs one finalisation, a
// COBRA b = 2 push three. A fourth draw continues on a generator built
// from those words. A draw that falls into Lemire's rejection tail
// (probability below deg/2^64) is redrawn from the stream positioned
// before it (xrand.StreamAt) through the rejection loop
// xrand.(*RNG).Uint64nTail; no draw makes a call outside that tail.
// ρ > 0 or Lazy kernels build each vertex's generator once per round and
// draw from it. The choice is made once, at construction, from Params.
// testdata/fingerprints.txt pins the trajectories of every path to bytes
// an earlier kernel wrote.
//
// Every round runs on the calling goroutine. The paper's bounds describe
// distributions over independent trials, so callers parallelise across
// trials and sweep cells (internal/batch, internal/sim), never within a
// round.
//
// The crossover defaults (|C_t| > n/64 for COBRA, vol(A_t) > n for BIPS)
// sit inside the single-round crossovers BenchmarkEngineCrossover
// (dense_test.go) measures on two 2^18-vertex graphs; doc.go ("Performance
// notes") gives the measured ranges.
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
// |frontier| > n/DefaultDenseDiv. Both representations pay the same
// |C_t|·b draws; they differ in the member slices a sparse round keeps
// against the n/64-word scan and fold of a dense one. Where they cross
// depends on the graph (BenchmarkEngineCrossover, 2^18 vertices, medians
// of 10 on a 2-core host): near n/96 on a random 3-regular graph, whose
// scattered members cost the sparse round cache misses, while on the
// 8-regular circulant the two stay within 12% of each other from n/96 to
// n/8. 64 sits at the first crossover and inside the second tie.
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
	// closed selects the closed-form first draws of push and
	// pullsInfected: ρ = 0 and not Lazy, so a vertex's first draws are
	// its neighbour picks.
	closed bool

	// Frontier state. cur is always authoritative; curList mirrors it
	// when curListOK (maintained by sparse rounds, rebuilt on demand).
	// Both representations maintain frontierN and frontierVol.
	cur         *bitset.Set
	curList     []int32
	curListOK   bool
	frontierN   int
	frontierVol int // Σ deg(v) over the frontier; see FrontierVolume

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
			k.frontierVol += g.Degree(v)
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
// Section 3 notation, maintained by every round without a rescan.
func (k *Kernel) FrontierVolume() int { return k.frontierVol }

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
		vol += k.g.Degree(v)
		if k.kind == Cobra && !k.covered.Contains(v) {
			k.covered.Set(v)
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
		if k.kind == Cobra {
			k.cobraDense()
		} else {
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
// the frontier volume reaches the vertex count.
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

// ensureList rebuilds the member mirror from the authoritative bitset
// after a dense round invalidated it.
func (k *Kernel) ensureList() {
	k.curList = k.curList[:0]
	k.cur.ForEach(func(v int) { k.curList = append(k.curList, int32(v)) })
	k.curListOK = true
}
