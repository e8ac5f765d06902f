// Package spectral computes the spectral quantities that parameterise the
// paper's bounds: the second-largest eigenvalue modulus λ of the
// random-walk transition matrix P = D⁻¹A (Theorem 1.2's 1−λ gap), the lazy
// variant (I+P)/2, and conductance estimates (the ϕ in the prior
// O((r⁴/ϕ²) log² n) bound of Mitzenmacher et al. that the paper improves).
//
// For the reversible chain P, the similarity transform
// S = D^{1/2} P D^{-1/2} is symmetric with the same spectrum, so all
// eigenvalue computations run on S via power iteration with deflation of
// the known Perron vector (which for S is proportional to sqrt(deg)).
// Products that feed a sum are rounded explicitly, float64(x*y) + z, so
// no target fuses them into a multiply-add (see package stats).
package spectral

import (
	"errors"
	"math"

	"github.com/repro/cobra/internal/graph"
)

// ErrNoConverge is returned when power iteration fails to reach the
// requested tolerance within the iteration budget.
var ErrNoConverge = errors.New("spectral: power iteration did not converge")

// Options tunes the eigenvalue computation. The zero value is replaced by
// defaults in each entry point.
type Options struct {
	// Tol is the absolute tolerance on the eigenvalue estimate.
	Tol float64
	// MaxIter caps the number of matrix–vector products.
	MaxIter int
	// Seed drives the deterministic pseudo-random start vector.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 200000
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
	return o
}

// SecondEigenvalue returns λ = max_{i>=2} |λ_i(P)| for the walk matrix
// P = D⁻¹A of a connected graph — exactly the λ of Theorem 1.2. For
// bipartite graphs λ = 1 (λ_n = −1), which the method recovers
// numerically.
func SecondEigenvalue(g *graph.Graph, opt Options) (float64, error) {
	return secondEigenvalue(g, false, opt)
}

// SecondEigenvalueLazy returns λ for the lazy walk (I+P)/2, whose spectrum
// is (1+λ_i)/2 >= 0; this is the relevant quantity for the lazy COBRA/BIPS
// processes on bipartite graphs.
func SecondEigenvalueLazy(g *graph.Graph, opt Options) (float64, error) {
	return secondEigenvalue(g, true, opt)
}

// Gap returns the eigenvalue gap 1−λ of the plain walk.
func Gap(g *graph.Graph, opt Options) (float64, error) {
	return gap(g, false, opt)
}

// LazyGap returns the eigenvalue gap 1−λ of the lazy walk (I+P)/2.
func LazyGap(g *graph.Graph, opt Options) (float64, error) {
	return gap(g, true, opt)
}

func gap(g *graph.Graph, lazy bool, opt Options) (float64, error) {
	lam, err := secondEigenvalue(g, lazy, opt)
	if err != nil {
		return 0, err
	}
	return 1 - lam, nil
}

// deflatedStart returns the unit Perron vector of the symmetrised matrix
// S, w(v) ∝ sqrt(deg v), and the seeded start vector deflated against it
// and normalised: the power iterations' shared starting point.
func deflatedStart(g *graph.Graph, seed uint64) (perron, x []float64) {
	n := g.N()
	perron = make([]float64, n)
	var norm float64
	for v := 0; v < n; v++ {
		perron[v] = math.Sqrt(float64(g.Degree(v)))
		norm += float64(perron[v] * perron[v])
	}
	norm = math.Sqrt(norm)
	for v := range perron {
		perron[v] /= norm
	}
	x = pseudoStart(n, seed)
	deflate(x, perron)
	normalize(x)
	return perron, x
}

func secondEigenvalue(g *graph.Graph, lazy bool, opt Options) (float64, error) {
	opt = opt.withDefaults()
	n := g.N()
	if n == 1 {
		return 0, nil
	}
	perron, x := deflatedStart(g, opt.Seed)
	y := make([]float64, n)

	// Power iteration on S² (two applications per step) so that both ends
	// of the spectrum (λ₂ near +1 and λ_n near −1) are captured by the
	// dominant eigenvalue of the deflated operator in absolute value. For
	// the lazy matrix the spectrum is non-negative and one application
	// would suffice; using S² uniformly halves the tolerance exponent and
	// keeps one code path.
	prev := 0.0
	for iter := 0; iter < opt.MaxIter; iter++ {
		applySym(g, lazy, x, y)
		deflate(y, perron)
		applySym(g, lazy, y, x)
		deflate(x, perron)
		lam2 := normalize(x) // estimates λ² of the deflated operator
		if math.Abs(lam2-prev) < opt.Tol {
			return math.Sqrt(math.Max(lam2, 0)), nil
		}
		prev = lam2
	}
	return 0, ErrNoConverge
}

// applySym computes y = S x where S = D^{-1/2} A D^{-1/2} (or the lazy
// (I+S)/2), the symmetric conjugate of the walk matrix.
func applySym(g *graph.Graph, lazy bool, x, y []float64) {
	n := g.N()
	for v := 0; v < n; v++ {
		var acc float64
		dv := math.Sqrt(float64(g.Degree(v)))
		for _, u := range g.Neighbors(v) {
			acc += x[u] / math.Sqrt(float64(g.Degree(int(u))))
		}
		y[v] = acc / dv
		if lazy {
			y[v] = float64(0.5*x[v]) + float64(0.5*y[v])
		}
	}
}

func deflate(x, dir []float64) {
	var dot float64
	for i := range x {
		dot += float64(x[i] * dir[i])
	}
	for i := range x {
		x[i] -= float64(dot * dir[i])
	}
}

// normalize scales x to unit length and returns its previous norm (the
// Rayleigh-style eigenvalue estimate of the preceding application).
func normalize(x []float64) float64 {
	var norm float64
	for _, v := range x {
		norm += float64(v * v)
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= norm
	}
	return norm
}

// pseudoStart builds a deterministic start vector with no special symmetry
// (a fixed-seed splitmix-style hash of the index), avoiding accidental
// orthogonality to the target eigenvector.
func pseudoStart(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = float64(float64(z>>11)/(1<<53)) - 0.5
	}
	return x
}
