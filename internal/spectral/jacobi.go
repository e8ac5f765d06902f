package spectral

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/repro/cobra/internal/graph"
)

// Dense full-spectrum computation via the cyclic Jacobi eigenvalue
// algorithm, used to cross-validate the power-iteration path on graphs
// with no closed-form spectrum and to compute spectral quantities exactly
// in tests. O(n³) per sweep and O(n²) memory: intended for n up to a few
// hundred.

// maxJacobiN caps the dense solver's problem size.
const maxJacobiN = 1024

// FullSpectrum returns all n eigenvalues of the random-walk transition
// matrix P = D⁻¹A of g (equivalently of the symmetrised S), sorted in
// non-increasing order. For a connected graph the first entry is 1 and
// the last is >= -1, with equality iff bipartite.
func FullSpectrum(g *graph.Graph) ([]float64, error) {
	n := g.N()
	if n > maxJacobiN {
		return nil, fmt.Errorf("spectral: FullSpectrum limited to n <= %d (n = %d)", maxJacobiN, n)
	}
	// Build the dense symmetric S = D^{-1/2} A D^{-1/2}.
	a := make([]float64, n*n)
	for v := 0; v < n; v++ {
		dv := math.Sqrt(float64(g.Degree(v)))
		for _, u := range g.Neighbors(v) {
			a[v*n+int(u)] = 1 / (dv * math.Sqrt(float64(g.Degree(int(u)))))
		}
	}
	eig := jacobiEigenvalues(a, n)
	slices.SortFunc(eig, func(x, y float64) int { return cmp.Compare(y, x) })
	return eig, nil
}

// SecondEigenvalueExact computes λ = max_{i >= 2} |λ_i| from the full
// spectrum; the dense cross-check for SecondEigenvalue.
func SecondEigenvalueExact(g *graph.Graph) (float64, error) {
	eig, err := FullSpectrum(g)
	if err != nil {
		return 0, err
	}
	if len(eig) == 1 {
		return 0, nil
	}
	lam := math.Abs(eig[1])
	if low := math.Abs(eig[len(eig)-1]); low > lam {
		lam = low
	}
	return lam, nil
}

// jacobiEigenvalues runs cyclic Jacobi sweeps on the dense symmetric
// matrix a (row-major, n×n), destroying a and returning its eigenvalues.
func jacobiEigenvalues(a []float64, n int) []float64 {
	if n == 1 {
		return []float64{a[0]}
	}
	const (
		maxSweeps = 64
		tol       = 1e-14
	)
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm for the convergence test.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(2 * a[i*n+j] * a[i*n+j])
			}
		}
		if off < tol*tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) < tol/float64(n) {
					continue
				}
				app, aqq := a[p*n+p], a[q*n+q]
				// Rotation angle zeroing a[p][q].
				theta := 0.5 * math.Atan2(2*apq, aqq-app)
				c, s := math.Cos(theta), math.Sin(theta)
				// Apply the rotation J^T A J restricted to rows/cols p,q.
				for k := 0; k < n; k++ {
					akp, akq := a[k*n+p], a[k*n+q]
					a[k*n+p] = float64(c*akp) - float64(s*akq)
					a[k*n+q] = float64(s*akp) + float64(c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p*n+k], a[q*n+k]
					a[p*n+k] = float64(c*apk) - float64(s*aqk)
					a[q*n+k] = float64(s*apk) + float64(c*aqk)
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = a[i*n+i]
	}
	return eig
}
