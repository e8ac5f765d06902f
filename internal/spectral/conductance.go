package spectral

import (
	"cmp"
	"math"
	"slices"

	"github.com/repro/cobra/internal/graph"
)

// Conductance quantities. The conductance of a graph is
//
//	ϕ(G) = min_{S: 0 < d(S) <= m} E(S, V\S) / d(S),
//
// minimised over vertex subsets with at most half the total degree, where
// E(S, V\S) counts cut edges and d(S) is the degree sum of S. The paper
// cites the bound 1−λ >= ϕ²/2 (the discrete Cheeger inequality) to compare
// its Theorem 1.2 against the O((r⁴/ϕ²) log² n) bound of [8].

// ConductanceExact computes ϕ(G) exactly by enumerating all 2^(n-1)-1
// proper subsets containing vertex 0's side; feasible for n <= ~24. Use it
// to validate the sweep heuristic and for small experiment graphs.
func ConductanceExact(g *graph.Graph) float64 {
	n := g.N()
	if n > 24 {
		panic("spectral: ConductanceExact limited to n <= 24")
	}
	if n < 2 {
		return 0
	}
	total := float64(g.DegreeSum())
	best := math.Inf(1)
	// Iterate over subsets that exclude vertex n-1, covering each
	// {S, complement} pair exactly once.
	for mask := 1; mask < 1<<(uint(n)-1); mask++ {
		var dS, cut float64
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) == 0 {
				continue
			}
			dS += float64(g.Degree(v))
			for _, u := range g.Neighbors(v) {
				if mask&(1<<uint(u)) == 0 {
					cut++
				}
			}
		}
		vol := math.Min(dS, total-dS)
		if vol == 0 {
			continue
		}
		if phi := cut / vol; phi < best {
			best = phi
		}
	}
	return best
}

// ConductanceSweep returns an upper bound on ϕ(G) from a spectral sweep
// cut: order vertices by the (approximate) second eigenvector of the lazy
// walk and take the best prefix cut. By Cheeger's inequality the result
// phi satisfies ϕ <= phi <= sqrt(2(1−λ_lazy)) · const, making it a useful
// two-sided handle at experiment scale.
func ConductanceSweep(g *graph.Graph, opt Options) (float64, error) {
	opt = opt.withDefaults()
	n := g.N()
	if n < 2 {
		return 0, nil
	}
	vec := secondVector(g, opt)
	// Vertex ids in ascending eigenvector entry, ties by id.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(vec[a], vec[b]) })

	inS := make([]bool, n)
	total := float64(g.DegreeSum())
	var dS, cut float64
	best := math.Inf(1)
	for k := 0; k < n-1; k++ {
		v := order[k]
		inS[v] = true
		dS += float64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if inS[u] {
				cut-- // edge now internal
			} else {
				cut++ // new cut edge
			}
		}
		vol := math.Min(dS, total-dS)
		if vol > 0 {
			if phi := cut / vol; phi < best {
				best = phi
			}
		}
	}
	return best, nil
}

// secondVector runs deflated power iteration on the lazy symmetrised
// matrix and returns the resulting vector mapped back to walk coordinates
// (D^{-1/2} x), which is the correct ordering key for sweep cuts.
func secondVector(g *graph.Graph, opt Options) []float64 {
	perron, x := deflatedStart(g, opt.Seed)
	y := make([]float64, len(x))
	prev := 0.0
	for iter := 0; iter < opt.MaxIter; iter++ {
		applySym(g, true, x, y)
		deflate(y, perron)
		lam := normalize(y)
		x, y = y, x
		if math.Abs(lam-prev) < opt.Tol {
			break
		}
		prev = lam
	}
	// Map to walk coordinates.
	for v := range x {
		x[v] /= math.Sqrt(float64(g.Degree(v)))
	}
	return x
}
