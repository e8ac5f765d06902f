// Package bounds evaluates the cover-time bound *shapes* stated in the
// paper and its predecessors, so that experiments, CLIs and examples all
// normalise measurements against the same formulas:
//
//   - Theorem 1.1 (this paper):   m + dmax² ln n          (general graphs)
//   - Theorem 1.2 (this paper):   (r/(1−λ) + r²) ln n     (regular graphs)
//   - Cooper et al. PODC'16 [4]:  (1/(1−λ))³ ln n         (regular graphs)
//
// The universal lower bound max{log₂ n, Diam(G)} is
// graph.(*Graph).CoverTimeLowerBound.
//
// All formulas are constant-free: the paper states asymptotic orders, so
// experiments check ratios against these shapes, not absolute values.
// Products that feed a sum are rounded explicitly, float64(x*y) + z, so
// no target fuses them into a multiply-add (see package stats).
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
	return float64(g.M()) + float64(d*d*math.Log(float64(g.N())))
}

// Regular evaluates Theorem 1.2's shape (r/gap + r²)·ln n for an
// r-regular graph with eigenvalue gap 1−λ.
func Regular(n, r int, gap float64) (float64, error) {
	if gap <= 0 || gap > 1 {
		return 0, ErrInput
	}
	rf := float64(r)
	return (rf/gap + float64(rf*rf)) * math.Log(float64(n)), nil
}

// PODC16 evaluates the prior (1/(1−λ))³·ln n bound of [4] that
// Theorem 1.2 improves when 1−λ = o(1/√r).
func PODC16(n int, gap float64) (float64, error) {
	if gap <= 0 || gap > 1 {
		return 0, ErrInput
	}
	return math.Pow(1/gap, 3) * math.Log(float64(n)), nil
}
