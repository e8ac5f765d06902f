package cobra

import (
	"io"

	"github.com/repro/cobra/internal/exact"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/walk"
)

// This file extends the facade with the analysis layer: exact
// (non-Monte-Carlo) computations on small graphs, full spectra, walk
// mixing times and graph serialisation.

// --- Exact analysis (small graphs; see internal/exact) ---

// ExactMaxN is the largest vertex count the exact subset-chain analysis
// accepts (state spaces are 2^n).
const ExactMaxN = exact.MaxN

// ExactHitProbability computes P(Hit(target) > T | C₀ = starts) for
// COBRA exactly (no sampling error) by evolving the distribution of the
// active set over all 2^n subsets. Requires g.N() <= ExactMaxN and
// Branch ∈ {1, 2}.
func ExactHitProbability(g *Graph, cfg Config, starts []int, target, T int) (float64, error) {
	return exact.CobraHitProbability(g, cfg, starts, target, T)
}

// ExactMeetComplementProbability computes P(C ∩ A_T = ∅ | A₀ = {source})
// for BIPS exactly. Theorem 1.3 makes this equal to ExactHitProbability
// with the roles of C and the source swapped — an identity the test
// suite verifies to 1e-10.
func ExactMeetComplementProbability(g *Graph, cfg Config, source int, c []int, T int) (float64, error) {
	return exact.BipsMeetComplementProbability(g, cfg, source, c, T)
}

// ExactExpectedInfectionTime computes E[infec(source)] exactly.
func ExactExpectedInfectionTime(g *Graph, cfg Config, source int) (float64, error) {
	return exact.ExpectedInfectionTime(g, cfg, source, 0)
}

// ExactExpectedHitTime computes E[Hit(target)] for COBRA exactly.
func ExactExpectedHitTime(g *Graph, cfg Config, starts []int, target int) (float64, error) {
	return exact.ExpectedHitTime(g, cfg, starts, target, 0)
}

// --- Spectra and mixing ---

// FullSpectrum returns all eigenvalues of the walk matrix P = D⁻¹A in
// non-increasing order (dense Jacobi; n <= 1024).
func FullSpectrum(g *Graph) ([]float64, error) {
	return spectral.FullSpectrum(g)
}

// StationaryDistribution returns π(v) = deg(v)/2m of the simple walk.
func StationaryDistribution(g *Graph) []float64 {
	return walk.Stationary(g)
}

// WalkMixingTime returns the exact eps-total-variation mixing time of
// the lazy simple random walk from src (distribution evolution; n
// bounded internally).
func WalkMixingTime(g *Graph, src int, eps float64) (int, error) {
	return walk.MixingTime(g, src, eps, 0)
}

// --- Graph serialisation ---

// WriteEdgeList writes g in the library's plain edge-list format.
func WriteEdgeList(g *Graph, w io.Writer) error { return g.WriteEdgeList(w) }

// ReadEdgeList parses the edge-list format; name overrides the embedded
// comment name when non-empty.
func ReadEdgeList(r io.Reader, name string) (*Graph, error) { return graph.ReadEdgeList(r, name) }

// WriteDOT writes g in Graphviz DOT format; highlight (optional) fills
// the marked vertices.
func WriteDOT(g *Graph, w io.Writer, highlight func(v int) bool) error {
	return g.WriteDOT(w, highlight)
}

// Spider returns the star-of-paths graph (legs paths of legLen vertices
// joined at a hub).
func Spider(legs, legLen int) *Graph { return graph.Spider(legs, legLen) }

// DoubleCycle returns the circulant C_n(1,2).
func DoubleCycle(n int) *Graph { return graph.DoubleCycle(n) }

// Chord returns the circulant C_n(1..k).
func Chord(n, k int) *Graph { return graph.Chord(n, k) }

// RingExpander returns a ring plus random-matching chords (seeded).
func RingExpander(n int, seed uint64) (*Graph, error) {
	return graph.RingExpander(n, NewRNG(seed))
}
