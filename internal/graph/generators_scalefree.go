package graph

import (
	"fmt"

	"github.com/repro/cobra/internal/xrand"
)

// Scalable random families for exercising the frontier engine at
// 10^5–10^6-vertex scale: preferential attachment (heavy-tailed degrees,
// stressing the dmax² term of Theorem 1.1) and small-world rewiring
// (near-regular with long-range shortcuts, an inexpensive stand-in for
// the expander regime of Theorem 1.2). Like every generator here they are
// deterministic functions of the supplied RNG.

// BarabasiAlbert samples a preferential-attachment graph: m0 = m seed
// vertices; vertex m attaches to all of them; every later vertex attaches
// to m distinct existing vertices chosen proportionally to their current
// degree (repeated-targets sampling). The result is connected by
// construction, has M = (n−m)·m edges, and a power-law degree tail.
// Requires n > m >= 1.
func BarabasiAlbert(n, m int, rng *xrand.RNG) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("%w: BarabasiAlbert needs m >= 1", ErrGenerator)
	}
	if n <= m {
		return nil, fmt.Errorf("%w: BarabasiAlbert needs n > m (n=%d, m=%d)", ErrGenerator, n, m)
	}
	b := newBuilder(n, (n-m)*m)
	// targets holds each vertex once per incident edge, so a uniform draw
	// from it is degree-proportional.
	targets := make([]int32, 0, 2*(n-m)*m)
	for w := 0; w < m; w++ {
		b.AddEdge(m, w)
		targets = append(targets, int32(m), int32(w))
	}
	chosen := make([]int32, 0, m)
	for v := m + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			// targets holds only vertices < v here (v's own entries are
			// appended after the loop), so no self-loop check is needed.
			w := targets[rng.Intn(len(targets))]
			if b.HasEdge(v, int(w)) {
				continue
			}
			b.AddEdge(v, int(w))
			chosen = append(chosen, w)
		}
		for _, w := range chosen {
			targets = append(targets, int32(v), w)
		}
	}
	return b.Build(fmt.Sprintf("ba-%d-m%d", n, m))
}

// WattsStrogatz samples a small-world graph: the ring lattice C_n(1..k/2)
// (each vertex adjacent to its k nearest ring neighbours) with every
// lattice edge's far endpoint rewired to a uniform random vertex with
// probability beta, avoiding loops and duplicates. Since rewiring can
// disconnect the graph, disconnected samples are redrawn up to a small
// attempt budget (for beta well below 1 they are rare). beta = 0 returns
// the exact lattice; beta = 1 approaches a random graph. Requires
// even k with 2 <= k < n and beta in [0, 1].
func WattsStrogatz(n, k int, beta float64, rng *xrand.RNG) (*Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("%w: WattsStrogatz needs even k >= 2, got %d", ErrGenerator, k)
	}
	if n <= k {
		return nil, fmt.Errorf("%w: WattsStrogatz needs n > k (n=%d, k=%d)", ErrGenerator, n, k)
	}
	// Written as !(beta >= 0) so that NaN is rejected too.
	if !(beta >= 0) || beta > 1 {
		return nil, fmt.Errorf("%w: WattsStrogatz needs beta in [0,1]", ErrGenerator)
	}
	const maxAttempts = 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := newBuilder(n, n*k/2)
		for u := 0; u < n; u++ {
			for j := 1; j <= k/2; j++ {
				w := (u + j) % n
				if beta > 0 && rng.Bernoulli(beta) {
					// Rewire {u, w} to {u, random}; keep the lattice edge
					// if no valid partner turns up quickly (vanishingly
					// rare except on tiny dense inputs).
					for tries := 0; tries < 32; tries++ {
						r := rng.Intn(n)
						if r != u && !b.HasEdge(u, r) {
							w = r
							break
						}
					}
				}
				if !b.HasEdge(u, w) {
					b.AddEdge(u, w)
				}
			}
		}
		g, err := b.Build(fmt.Sprintf("ws-%d-k%d-b%g", n, k, beta))
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: WS(%d, %d, %g) not connected after %d attempts",
		ErrGenerator, n, k, beta, maxAttempts)
}
