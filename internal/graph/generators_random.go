package graph

import (
	"errors"
	"fmt"
	"math"

	"github.com/repro/cobra/internal/xrand"
)

// Random graph families. All generators are deterministic functions of the
// supplied RNG, so experiments are reproducible from a master seed.

// ErrGenerator is wrapped by failures of randomised constructions (e.g. a
// connected sample could not be found within the attempt budget).
var ErrGenerator = errors.New("graph: randomised generator failed")

// ErdosRenyi samples G(n, p) conditioned on being connected: it redraws up
// to maxAttempts times until the sample is connected. For p >= c*ln(n)/n
// with c > 1 a draw is connected with probability 1 - o(1), so a small
// budget suffices; callers passing sub-threshold p get ErrGenerator.
func ErdosRenyi(n int, p float64, rng *xrand.RNG) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: ErdosRenyi needs n >= 2", ErrGenerator)
	}
	// Written as !(p > 0) so that NaN is rejected too.
	if !(p > 0) || p > 1 {
		return nil, fmt.Errorf("%w: ErdosRenyi needs 0 < p <= 1", ErrGenerator)
	}
	const maxAttempts = 64
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := newBuilder(n, int(p*float64(n)*float64(n-1)/2))
		// Geometric skipping (Batagelj–Brandes) samples G(n,p) in O(n+m)
		// rather than O(n^2) when p is small.
		sampleGnp(b, n, p, rng)
		g, err := b.Build(fmt.Sprintf("er-%d-p%.4f", n, p))
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: G(%d, %.4f) not connected after %d attempts (p below connectivity threshold?)",
		ErrGenerator, n, p, maxAttempts)
}

func sampleGnp(b *Builder, n int, p float64, rng *xrand.RNG) {
	if p >= 1 {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(u, v)
			}
		}
		return
	}
	// Enumerate candidate pairs (u,v), u<v, in row-major order, skipping
	// ahead geometrically.
	logq := math.Log1p(-p)
	u, v := 0, 0
	for u < n-1 {
		// Draw skip ~ Geometric(p): number of pairs to jump over.
		// float64(·) rounds Float64's multiply by 2^-53 so the
		// subtraction cannot fuse with it (see package stats).
		skip := int(math.Log(1-float64(rng.Float64()))/logq) + 1
		v += skip
		for v >= n && u < n-1 {
			u++
			v = v - n + u + 1
		}
		if u < n-1 && v < n && v > u {
			b.AddEdge(u, v)
		}
	}
}

// RandomRegular samples a random r-regular simple connected graph on n
// vertices using the Steger–Wormald incremental pairing algorithm: keep a
// pool of unsaturated half-edge stubs and repeatedly match two random
// stubs, accepting only pairs that create neither loops nor multi-edges;
// if the process wedges (no acceptable pair remains), restart. The output
// distribution is asymptotically uniform for r = O(n^{1/28}) and close to
// uniform in practice for the (n, r) ranges used here, and samples succeed
// in O(1) expected restarts unlike pure configuration-model rejection
// whose acceptance decays like e^{-(r^2-1)/4}.
//
// Disconnected accepted samples are also redrawn (for r >= 3 they occur
// with probability o(1)). Requires n*r even and n > r.
func RandomRegular(n, r int, rng *xrand.RNG) (*Graph, error) {
	if r < 1 {
		return nil, fmt.Errorf("%w: RandomRegular needs r >= 1", ErrGenerator)
	}
	if n < r+1 {
		return nil, fmt.Errorf("%w: RandomRegular needs n > r", ErrGenerator)
	}
	if n*r%2 != 0 {
		return nil, fmt.Errorf("%w: RandomRegular needs n*r even (n=%d, r=%d)", ErrGenerator, n, r)
	}
	const maxAttempts = 500
	stubs := make([]int32, 0, n*r)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := newBuilder(n, n*r/2)
		stubs = stubs[:0]
		for v := 0; v < n; v++ {
			for k := 0; k < r; k++ {
				stubs = append(stubs, int32(v))
			}
		}
		wedged := false
		for len(stubs) > 0 {
			// Try to find an acceptable random pair; the expected number
			// of retries is O(1) until very near the end, so a generous
			// cap distinguishes "unlucky draw" from "wedged state".
			tries := 0
			matched := false
			for tries < 50+len(stubs)*10 {
				i := rng.Intn(len(stubs))
				j := rng.Intn(len(stubs))
				if i == j {
					tries++
					continue
				}
				u, v := int(stubs[i]), int(stubs[j])
				if u == v || b.HasEdge(u, v) {
					tries++
					continue
				}
				b.AddEdge(u, v)
				// Remove the two stubs (order-insensitive swap-delete).
				if i < j {
					i, j = j, i
				}
				last := len(stubs) - 1
				stubs[i] = stubs[last]
				stubs = stubs[:last]
				last--
				stubs[j] = stubs[last]
				stubs = stubs[:last]
				matched = true
				break
			}
			if !matched {
				wedged = true
				break
			}
		}
		if wedged {
			continue
		}
		g, err := b.Build(fmt.Sprintf("rreg-%d-r%d", n, r))
		if err != nil {
			return nil, err
		}
		if g.IsConnected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: no simple connected %d-regular sample on %d vertices after %d attempts",
		ErrGenerator, r, n, maxAttempts)
}

// RingExpander returns a connected non-bipartite weak expander built from
// a ring plus a random perfect matching of chords (n even): 3-regular up
// to chord collisions, in which case the collided vertices keep degree 2.
// Cheaper than rejection-sampling an exact random regular graph when only
// "some expander" is needed, e.g. in examples.
func RingExpander(n int, rng *xrand.RNG) (*Graph, error) {
	if n < 6 || n%2 != 0 {
		return nil, fmt.Errorf("%w: RingExpander needs even n >= 6", ErrGenerator)
	}
	b := newBuilder(n, n+n/2)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	perm := rng.Perm(n)
	for i := 0; i < n; i += 2 {
		u, v := perm[i], perm[i+1]
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.Build(fmt.Sprintf("ringexp-%d", n))
}

// RandomTree samples a uniform labelled tree on n vertices via a random
// Prüfer sequence. Trees are the sparsest connected graphs (m = n-1) and
// stress the additive m term versus the dmax^2 log n term in Theorem 1.1.
func RandomTree(n int, rng *xrand.RNG) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("%w: RandomTree needs n >= 2", ErrGenerator)
	}
	b := newBuilder(n, n-1)
	if n == 2 {
		b.AddEdge(0, 1)
		return b.Build("rtree-2")
	}
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range deg {
		deg[i] = 1
	}
	for i := range prufer {
		prufer[i] = rng.Intn(n)
		deg[prufer[i]]++
	}
	// Decode: repeatedly join the smallest leaf to the next code symbol.
	// A simple O(n log n) approach with an index scan is fine at our sizes.
	used := make([]bool, n)
	leaf := -1
	next := 0 // smallest candidate leaf not yet used
	findLeaf := func() int {
		for next < n {
			if deg[next] == 1 && !used[next] {
				return next
			}
			next++
		}
		return -1
	}
	for _, code := range prufer {
		if leaf < 0 {
			leaf = findLeaf()
		}
		b.AddEdge(leaf, code)
		used[leaf] = true
		deg[code]--
		if deg[code] == 1 && code < next {
			leaf = code
		} else {
			leaf = -1
		}
	}
	// Two vertices of degree 1 remain; connect them.
	u := -1
	for v := 0; v < n; v++ {
		if !used[v] && deg[v] == 1 {
			if u < 0 {
				u = v
			} else {
				b.AddEdge(u, v)
				break
			}
		}
	}
	return b.Build(fmt.Sprintf("rtree-%d", n))
}
