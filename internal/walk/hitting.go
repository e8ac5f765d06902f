package walk

import (
	"fmt"
	"math"

	"github.com/repro/cobra/internal/graph"
)

// Exact expected hitting times of the simple random walk by solving the
// harmonic system
//
//	h(t) = 0,   h(u) = 1 + (1/deg u) Σ_{w ~ u} h(w)  for u ≠ t,
//
// with Gauss–Seidel iteration (guaranteed to converge for connected
// graphs: the system is a diagonally dominant M-matrix). These values
// anchor the b = 1 baseline: COBRA with b = 2 must beat them, and the
// closed forms (cycle: k(n−k); path; complete: n−1) validate the solver.

// HitTimes returns h(u) = E[steps for a walk from u to reach target] for
// every vertex u. tol is the Gauss–Seidel convergence tolerance
// (default 1e-10 when <= 0).
func HitTimes(g *graph.Graph, target int, tol float64) ([]float64, error) {
	n := g.N()
	if target < 0 || target >= n {
		return nil, fmt.Errorf("%w: target %d", ErrInput, target)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("%w: disconnected graph", ErrInput)
	}
	if tol <= 0 {
		tol = 1e-10
	}
	h := make([]float64, n)
	// Initialise with BFS distances — a decent starting point.
	for v, d := range g.BFS(target) {
		h[v] = float64(d)
	}
	// Gauss–Seidel sweeps until the largest update falls below tol.
	// The iteration count scales with the mixing time; cap generously.
	maxSweeps := 1000 * n
	if maxSweeps < 100000 {
		maxSweeps = 100000
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var delta float64
		for u := 0; u < n; u++ {
			if u == target {
				continue
			}
			var acc float64
			for _, w := range g.Neighbors(u) {
				acc += h[w]
			}
			next := 1 + acc/float64(g.Degree(u))
			if d := math.Abs(next - h[u]); d > delta {
				delta = d
			}
			h[u] = next
		}
		if delta < tol {
			return h, nil
		}
	}
	return nil, fmt.Errorf("%w: Gauss-Seidel did not converge", ErrInput)
}
