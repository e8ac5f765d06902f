package graph

import "math"

// Structural properties used by the theorems: connectivity (all results
// assume connected G), bipartiteness (Theorem 1.2 needs non-bipartite, or
// lazy processes), BFS distances and diameter (the lower bound
// max{log2 n, Diam(G)} from the introduction).

// log and log1p are tiny indirections so generator code reads cleanly.
func log(x float64) float64   { return math.Log(x) }
func log1p(x float64) float64 { return math.Log1p(x) }

// IsConnected reports whether the graph is connected (true for n = 1).
// The O(n+m) traversal runs once per graph; later calls, from any
// goroutine, return the memoized answer.
func (g *Graph) IsConnected() bool {
	g.connOnce.Do(func() { g.connected = g.traverseConnected() })
	return g.connected
}

func (g *Graph) traverseConnected() bool {
	if g.n <= 1 {
		return true
	}
	visited := make([]bool, g.n)
	stack := []int32{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.Neighbors(int(v)) {
			if !visited[u] {
				visited[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.n
}

// IsBipartite reports whether the graph is bipartite, by 2-colouring BFS.
// A connected graph is bipartite iff λ_n = -1, i.e. the plain (non-lazy)
// walk does not mix; the paper handles this case with lazy COBRA/BIPS.
func (g *Graph) IsBipartite() bool {
	color := make([]int8, g.n) // 0 = unseen, 1 / 2 = sides
	queue := make([]int32, 0, g.n)
	for start := 0; start < g.n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		queue = append(queue[:0], int32(start))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(int(v)) {
				if color[u] == 0 {
					color[u] = 3 - color[v]
					queue = append(queue, u)
				} else if color[u] == color[v] {
					return false
				}
			}
		}
	}
	return true
}

// BFS returns the array of hop distances from src; unreachable vertices
// get -1.
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 1, g.n)
	queue[0] = int32(src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dv := dist[v]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] < 0 {
				dist[u] = dv + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src, or -1 if
// some vertex is unreachable.
func (g *Graph) Eccentricity(src int) int {
	ecc := 0
	for _, d := range g.BFS(src) {
		if d < 0 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact diameter by running BFS from every vertex
// (O(nm)); fine at experiment sizes. Returns -1 for disconnected graphs.
func (g *Graph) Diameter() int {
	diam := 0
	for v := 0; v < g.n; v++ {
		e := g.Eccentricity(v)
		if e < 0 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// DiameterApprox returns a lower bound on the diameter via a double BFS
// sweep (exact on trees), used when n is too large for the exact O(nm)
// computation.
func (g *Graph) DiameterApprox() int {
	if g.n == 0 {
		return 0
	}
	dist := g.BFS(0)
	far := 0
	for v, d := range dist {
		if d > dist[far] {
			far = v
		}
	}
	return g.Eccentricity(far)
}

// CoverTimeLowerBound returns the paper's deterministic lower bound on the
// number of COBRA (b=2) rounds to inform all vertices:
// max{log2 n, Diam(G)} — the informed set at most doubles per round, and
// information travels one hop per round.
func (g *Graph) CoverTimeLowerBound() int {
	lg := int(math.Ceil(math.Log2(float64(g.n))))
	d := g.DiameterApprox()
	if d > lg {
		return d
	}
	return lg
}

// Validate performs the internal consistency checks used by property
// tests: symmetric adjacency, sorted neighbour lists, no loops or
// duplicates, handshake identity sum(deg) = 2m.
func (g *Graph) Validate() error {
	degSum := 0
	for v := 0; v < g.n; v++ {
		nb := g.Neighbors(v)
		degSum += len(nb)
		for i, u := range nb {
			if int(u) == v {
				return ErrSelfLoop
			}
			if i > 0 && nb[i-1] >= u {
				return ErrDuplicate
			}
			if u < 0 || int(u) >= g.n {
				return ErrVertexRange
			}
			if !g.HasEdge(int(u), v) {
				return errAsymmetric
			}
		}
	}
	if degSum != 2*g.m {
		return errHandshake
	}
	return nil
}

var (
	errAsymmetric = errorString("graph: asymmetric adjacency")
	errHandshake  = errorString("graph: degree sum != 2m")
)

type errorString string

func (e errorString) Error() string { return string(e) }
