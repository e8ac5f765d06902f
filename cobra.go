package cobra

import (
	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/duality"
	"github.com/repro/cobra/internal/gossip"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/walk"
	"github.com/repro/cobra/internal/xrand"
)

// Graph is a simple undirected graph in compressed adjacency form. See
// the constructors below; a custom graph is built with NewBuilder.
type Graph = graph.Graph

// Builder incrementally assembles a custom Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// RNG is the deterministic random number generator used by all processes.
type RNG = xrand.RNG

// NewRNG returns a seeded generator; the same seed always reproduces the
// same simulation results.
func NewRNG(seed uint64) *RNG { return xrand.New(seed) }

// Config selects the process variant shared by COBRA and BIPS: Branch
// (b >= 1, paper default 2), Rho (a fractional extra branch with
// probability Rho ∈ [0, 1], Section 6), Lazy (each selection stays put
// with probability 1/2; required on bipartite graphs) and MaxRounds (the
// cap on one run, 0 = a generous default).
type Config = core.Config

// DefaultConfig returns the paper's primary setting, b = 2.
func DefaultConfig() Config { return core.DefaultConfig() }

// --- Graph constructors (deterministic families) ---

// Complete returns the complete graph K_n.
func Complete(n int) *Graph { return graph.Complete(n) }

// Cycle returns the n-cycle (n >= 3).
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Path returns the path on n vertices (n >= 2).
func Path(n int) *Graph { return graph.Path(n) }

// Star returns the star K_{1,n-1}.
func Star(n int) *Graph { return graph.Star(n) }

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *Graph { return graph.Hypercube(d) }

// Grid returns the multi-dimensional grid with the given side lengths.
func Grid(dims ...int) *Graph { return graph.Grid(dims...) }

// Torus returns the multi-dimensional torus with the given side lengths.
func Torus(dims ...int) *Graph { return graph.Torus(dims...) }

// BinaryTree returns the complete binary tree on n vertices.
func BinaryTree(n int) *Graph { return graph.BinaryTree(n) }

// Lollipop returns a clique with an attached path.
func Lollipop(cliqueSize, pathLen int) *Graph { return graph.Lollipop(cliqueSize, pathLen) }

// Barbell returns two cliques joined by a path.
func Barbell(cliqueSize, bridgeLen int) *Graph { return graph.Barbell(cliqueSize, bridgeLen) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph { return graph.CompleteBipartite(a, b) }

// Petersen returns the Petersen graph.
func Petersen() *Graph { return graph.Petersen() }

// --- Graph constructors (random families; deterministic in seed) ---

// ErdosRenyi samples a connected G(n, p) graph.
func ErdosRenyi(n int, p float64, seed uint64) (*Graph, error) {
	return graph.ErdosRenyi(n, p, xrand.New(seed))
}

// RandomRegular samples a connected random r-regular graph.
func RandomRegular(n, r int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, r, xrand.New(seed))
}

// RandomTree samples a uniform random labelled tree.
func RandomTree(n int, seed uint64) (*Graph, error) {
	return graph.RandomTree(n, xrand.New(seed))
}

// BarabasiAlbert samples a preferential-attachment graph on n vertices
// with m attachments per new vertex: connected, heavy-tailed degrees,
// cheap to generate at 10^5–10^6-vertex scale.
func BarabasiAlbert(n, m int, seed uint64) (*Graph, error) {
	return graph.BarabasiAlbert(n, m, xrand.New(seed))
}

// WattsStrogatz samples a connected small-world graph: the ring lattice
// C_n(1..k/2) with each edge rewired to a random endpoint with
// probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) (*Graph, error) {
	return graph.WattsStrogatz(n, k, beta, xrand.New(seed))
}

// --- COBRA ---

// Process is a stepwise COBRA simulation; create with NewProcess.
type Process = core.Process

// NewProcess creates a COBRA process with initial particle set start.
func NewProcess(g *Graph, cfg Config, start []int, rng *RNG) (*Process, error) {
	return core.New(g, cfg, start, rng)
}

// CoverTime runs one COBRA trial from start and returns the number of
// rounds until every vertex has been visited.
func CoverTime(g *Graph, cfg Config, start int, seed uint64) (int, error) {
	return core.CoverTime(g, cfg, start, xrand.New(seed))
}

// HitTime runs one COBRA trial and returns the first round at which
// target is visited.
func HitTime(g *Graph, cfg Config, start, target int, seed uint64) (int, error) {
	return core.HitTime(g, cfg, start, target, xrand.New(seed))
}

// CoverTrace is the per-round trajectory of one COBRA run.
type CoverTrace = core.RoundTrace

// TraceCover runs one COBRA trial recording per-round set sizes.
func TraceCover(g *Graph, cfg Config, start int, seed uint64) (*CoverTrace, error) {
	return core.Trace(g, cfg, start, xrand.New(seed))
}

// --- BIPS ---

// Epidemic is a stepwise BIPS simulation; create with NewEpidemic.
type Epidemic = bips.Process

// NewEpidemic creates a BIPS process with the given persistent source.
func NewEpidemic(g *Graph, cfg Config, source int, rng *RNG) (*Epidemic, error) {
	return bips.New(g, cfg, source, rng)
}

// InfectionTime runs one BIPS trial and returns the first round at which
// the whole graph is infected.
func InfectionTime(g *Graph, cfg Config, source int, seed uint64) (int, error) {
	return bips.InfectionTime(g, cfg, source, xrand.New(seed))
}

// InfectionTrace is the per-round trajectory of one BIPS run.
type InfectionTrace = bips.RoundTrace

// TraceInfection runs one BIPS trial recording per-round infected and
// candidate set sizes.
func TraceInfection(g *Graph, cfg Config, source int, seed uint64) (*InfectionTrace, error) {
	return bips.Trace(g, cfg, source, xrand.New(seed))
}

// --- Duality (Theorem 1.3) ---

// CheckDuality samples one shared selection table and replays COBRA
// forward and BIPS backward on it, returning both sides of the pathwise
// equivalence ("target hit within T" vs "starts ∩ A_T ≠ ∅"); Theorem 1.3
// asserts they are always equal.
func CheckDuality(g *Graph, cfg Config, starts []int, target, T int, seed uint64) (cobraHit, bipsMeet bool, err error) {
	return duality.CheckPathwise(g, cfg, starts, target, T, xrand.New(seed))
}

// --- Spectral properties ---

// SecondEigenvalue returns λ, the second-largest eigenvalue modulus of
// the random-walk matrix (1 for bipartite graphs).
func SecondEigenvalue(g *Graph) (float64, error) {
	return spectral.SecondEigenvalue(g, spectral.Options{})
}

// SpectralGap returns 1 − λ, the quantity parameterising Theorem 1.2.
func SpectralGap(g *Graph) (float64, error) {
	return spectral.Gap(g, spectral.Options{})
}

// LazySpectralGap returns 1 − λ for the lazy walk (I+P)/2, the relevant
// gap for lazy processes on bipartite graphs.
func LazySpectralGap(g *Graph) (float64, error) {
	return spectral.LazyGap(g, spectral.Options{})
}

// Conductance returns an upper estimate of the graph conductance ϕ via a
// spectral sweep cut (exact for n <= 24 via ConductanceExact in the
// internal package).
func Conductance(g *Graph) (float64, error) {
	return spectral.ConductanceSweep(g, spectral.Options{})
}

// --- Baselines ---

// RandomWalkCover returns the number of steps a simple random walk needs
// to visit every vertex (the b = 1 baseline; Ω(n log n) on every graph).
func RandomWalkCover(g *Graph, start int, seed uint64) (int64, error) {
	return walk.CoverTime(g, start, false, xrand.New(seed))
}

// MultiWalkCover returns the number of synchronised rounds k independent
// random walks need to visit every vertex.
func MultiWalkCover(g *Graph, k, start int, seed uint64) (int64, error) {
	return walk.MultiCoverTime(g, k, start, xrand.New(seed))
}

// PushResult summarises a push-gossip broadcast run.
type PushResult = gossip.Result

// PushBroadcast runs the push protocol (informed vertices never stop
// pushing) and returns rounds and total messages.
func PushBroadcast(g *Graph, start int, seed uint64) (PushResult, error) {
	return gossip.Push(g, start, xrand.New(seed))
}
