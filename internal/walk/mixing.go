package walk

import (
	"fmt"
	"math"

	"github.com/repro/cobra/internal/graph"
)

// Mixing analysis of the (lazy) simple random walk. The paper's
// Theorem 1.2 is parameterised by the eigenvalue gap 1−λ, whose inverse
// is (up to log factors) the walk's mixing time; this module computes
// stationary distributions and total-variation mixing times exactly by
// evolving the distribution vector, providing an independent handle on
// the same quantity for validation and for the EXPERIMENTS.md discussion.

// maxMixingN caps the dense distribution evolution (O(m) per step but
// O(n) vectors per source; the driver below uses a single source).
const maxMixingN = 1 << 16

// Stationary returns the stationary distribution of the simple random
// walk: π(v) = deg(v) / 2m.
func Stationary(g *graph.Graph) []float64 {
	pi := make([]float64, g.N())
	total := float64(g.DegreeSum())
	for v := 0; v < g.N(); v++ {
		pi[v] = float64(g.Degree(v)) / total
	}
	return pi
}

// EvolveDistribution advances the walk distribution p by one step:
// out(v) = Σ_{u ~ v} p(u)/deg(u), lazily if lazy is set. out must have
// length n and may not alias p. The lazy mix rounds each product before
// the sum, float64(x*y) + z, so no target fuses them (see package stats).
func EvolveDistribution(g *graph.Graph, p, out []float64, lazy bool) {
	n := g.N()
	for v := 0; v < n; v++ {
		var acc float64
		for _, u := range g.Neighbors(v) {
			acc += p[u] / float64(g.Degree(int(u)))
		}
		if lazy {
			out[v] = float64(0.5*p[v]) + float64(0.5*acc)
		} else {
			out[v] = acc
		}
	}
}

// TotalVariation returns (1/2) Σ |p(v) − q(v)|.
func TotalVariation(p, q []float64) float64 {
	var tv float64
	for i := range p {
		tv += math.Abs(p[i] - q[i])
	}
	return tv / 2
}

// MixingTime returns the smallest t such that the lazy walk started at
// src is within eps total-variation distance of stationarity, computed
// exactly by evolving the distribution. Returns an error if maxSteps is
// exceeded (e.g. eps too small for a poorly connected graph).
func MixingTime(g *graph.Graph, src int, eps float64, maxSteps int) (int, error) {
	if src < 0 || src >= g.N() {
		return 0, fmt.Errorf("%w: src %d", ErrInput, src)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("%w: eps must be in (0,1)", ErrInput)
	}
	if g.N() > maxMixingN {
		return 0, fmt.Errorf("%w: MixingTime limited to n <= %d", ErrInput, maxMixingN)
	}
	if maxSteps <= 0 {
		maxSteps = 256 * g.N() * g.N()
	}
	pi := Stationary(g)
	p := make([]float64, g.N())
	q := make([]float64, g.N())
	p[src] = 1
	for t := 0; t <= maxSteps; t++ {
		if TotalVariation(p, pi) <= eps {
			return t, nil
		}
		EvolveDistribution(g, p, q, true)
		p, q = q, p
	}
	return 0, fmt.Errorf("%w: no mixing within %d steps", ErrStepLimit, maxSteps)
}
