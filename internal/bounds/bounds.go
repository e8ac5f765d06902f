// Package bounds evaluates the cover-time bound *shapes* stated in the
// paper and its predecessors, so that experiments, CLIs and examples all
// normalise measurements against the same formulas:
//
//   - Theorem 1.1 (this paper):   m + dmax² ln n          (general graphs)
//   - Theorem 1.2 (this paper):   (r/(1−λ) + r²) ln n     (regular graphs)
//   - Cooper et al. PODC'16 [4]:  (1/(1−λ))³ ln n         (regular graphs)
//   - Mitzenmacher et al. '16 [8]: (r⁴/ϕ²) ln² n          (regular, conductance)
//   - Universal lower bound:       max{log₂ n, Diam(G)}
//
// All formulas are constant-free: the paper states asymptotic orders, so
// experiments check ratios against these shapes, not absolute values.
package bounds

import (
	"errors"
	"math"

	"github.com/repro/cobra/internal/graph"
)

// ErrInput flags invalid bound arguments.
var ErrInput = errors.New("bounds: invalid input")

// General evaluates Theorem 1.1's shape m + dmax²·ln n.
func General(g *graph.Graph) float64 {
	d := float64(g.MaxDegree())
	return float64(g.M()) + d*d*math.Log(float64(g.N()))
}

// Regular evaluates Theorem 1.2's shape (r/gap + r²)·ln n for an
// r-regular graph with eigenvalue gap 1−λ.
func Regular(n, r int, gap float64) (float64, error) {
	if gap <= 0 || gap > 1 {
		return 0, ErrInput
	}
	rf := float64(r)
	return (rf/gap + rf*rf) * math.Log(float64(n)), nil
}

// PODC16 evaluates the prior (1/(1−λ))³·ln n bound of [4] that
// Theorem 1.2 improves when 1−λ = o(1/√r).
func PODC16(n int, gap float64) (float64, error) {
	if gap <= 0 || gap > 1 {
		return 0, ErrInput
	}
	return math.Pow(1/gap, 3) * math.Log(float64(n)), nil
}

// SPAA16 evaluates the prior (r⁴/ϕ²)·ln² n bound of [8] in terms of the
// conductance ϕ.
func SPAA16(n, r int, phi float64) (float64, error) {
	if phi <= 0 || phi > 1 {
		return 0, ErrInput
	}
	rf := float64(r)
	ln := math.Log(float64(n))
	return rf * rf * rf * rf / (phi * phi) * ln * ln, nil
}

// Lower returns the universal deterministic lower bound
// max{log₂ n, Diam(G)} on b = 2 cover time.
func Lower(g *graph.Graph) int {
	return g.CoverTimeLowerBound()
}

// GapPremise reports whether the graph's gap satisfies Theorem 1.2's
// premise 1−λ > C√(ln n / n) for the given constant C.
func GapPremise(n int, gap, c float64) bool {
	return gap > c*math.Sqrt(math.Log(float64(n))/float64(n))
}

// HypercubeTriple returns the three successive hypercube bound shapes
// from the paper's running example — ln³ n (this paper), ln⁴ n [4],
// ln⁸ n [8] — for n = 2^d.
func HypercubeTriple(d int) (lnCubed, lnFourth, lnEighth float64) {
	ln := float64(d) * math.Ln2
	return math.Pow(ln, 3), math.Pow(ln, 4), math.Pow(ln, 8)
}

// FractionalScale returns the Section 6 round-count multiplier 1/ρ² for
// branching factor 1+ρ, ρ ∈ (0, 1]; NaN fails.
func FractionalScale(rho float64) (float64, error) {
	if !(rho > 0 && rho <= 1) {
		return 0, ErrInput
	}
	return 1 / (rho * rho), nil
}
