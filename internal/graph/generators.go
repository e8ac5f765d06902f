package graph

import "fmt"

// This file contains the deterministic graph families used across the
// experiments. Random families (Erdős–Rényi, random regular) are in
// generators_random.go.

// Complete returns the complete graph K_n. The paper's intro example (i):
// COBRA covers K_n in O(log n) rounds.
func Complete(n int) *Graph {
	b := newBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild(fmt.Sprintf("complete-%d", n))
}

// Cycle returns the n-cycle C_n (n >= 3). Even cycles are bipartite, which
// exercises the lazy-COBRA remark under Theorem 1.2.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := newBuilder(n, n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.MustBuild(fmt.Sprintf("cycle-%d", n))
}

// Path returns the path graph P_n on n vertices (n >= 2). Its cover time is
// diameter-dominated: the worst deterministic lower bound from the paper,
// max{log2 n, Diam(G)}, is tight up to the diameter term here.
func Path(n int) *Graph {
	if n < 2 {
		panic("graph: Path requires n >= 2")
	}
	b := newBuilder(n, n-1)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild(fmt.Sprintf("path-%d", n))
}

// Star returns the star K_{1,n-1}: vertex 0 adjacent to all others. This is
// the extreme dmax = n-1 case of Theorem 1.1's (dmax)^2 log n term.
func Star(n int) *Graph {
	if n < 2 {
		panic("graph: Star requires n >= 2")
	}
	b := newBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild(fmt.Sprintf("star-%d", n))
}

// CompleteBipartite returns K_{a,b}: parts {0..a-1} and {a..a+b-1}. It is
// connected and bipartite, so plain BIPS/COBRA with b=2 can oscillate;
// the lazy variants are needed (remark under Theorem 1.2).
func CompleteBipartite(a, bn int) *Graph {
	if a < 1 || bn < 1 {
		panic("graph: CompleteBipartite requires both parts non-empty")
	}
	b := newBuilder(a+bn, a*bn)
	for u := 0; u < a; u++ {
		for v := 0; v < bn; v++ {
			b.AddEdge(u, a+v)
		}
	}
	return b.MustBuild(fmt.Sprintf("bipartite-%d-%d", a, bn))
}

// Hypercube returns the d-dimensional hypercube Q_d on n = 2^d vertices.
// Vertex labels are the binary strings; u ~ v iff they differ in one bit.
// The paper's running example: degree r = log2 n, eigenvalue gap
// 1-λ = Θ(1/log n), and the successive cover-time bounds O(log^8 n) [8],
// O(log^4 n) [4], O(log^3 n) (this paper).
func Hypercube(d int) *Graph {
	if d < 1 || d > 30 {
		panic("graph: Hypercube requires 1 <= d <= 30")
	}
	n := 1 << uint(d)
	b := newBuilder(n, d*n/2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << uint(bit))
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.MustBuild(fmt.Sprintf("hypercube-%d", d))
}

// Grid returns the D-dimensional grid with side s (n = s^D vertices),
// with non-periodic boundaries. The D-dimensional grid is the family with
// the O(D^2 n^{1/D}) bound from [8] cited in the introduction.
func Grid(dims ...int) *Graph {
	if len(dims) == 0 {
		panic("graph: Grid requires at least one dimension")
	}
	n := 1
	for _, s := range dims {
		if s < 2 {
			panic("graph: Grid sides must be >= 2")
		}
		if int64(n) > (1<<31)/int64(s) { // in int64, so a 32-bit int compiles
			panic("graph: Grid too large")
		}
		n *= s
	}
	edges := 0
	for _, s := range dims {
		edges += (s - 1) * (n / s)
	}
	b := newBuilder(n, edges)
	// Mixed-radix encoding: index = sum coord[k] * stride[k].
	stride := make([]int, len(dims))
	stride[0] = 1
	for k := 1; k < len(dims); k++ {
		stride[k] = stride[k-1] * dims[k-1]
	}
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		rem := v
		for k := range dims {
			coord[k] = rem % dims[k]
			rem /= dims[k]
		}
		for k := range dims {
			if coord[k]+1 < dims[k] {
				b.AddEdge(v, v+stride[k])
			}
		}
	}
	return b.MustBuild(fmt.Sprintf("grid-%dd-%d", len(dims), n))
}

// Torus returns the D-dimensional torus (grid with periodic boundaries).
// For every side >= 3 it is regular with degree 2D, the regular-graph
// stand-in for the grid family in Theorem 1.2 experiments. Even sides make
// it bipartite in 1 dimension; for D >= 2 with any side >= 3 odd it is not.
func Torus(dims ...int) *Graph {
	if len(dims) == 0 {
		panic("graph: Torus requires at least one dimension")
	}
	n := 1
	for _, s := range dims {
		if s < 3 {
			panic("graph: Torus sides must be >= 3")
		}
		if int64(n) > (1<<31)/int64(s) { // in int64, so a 32-bit int compiles
			panic("graph: Torus too large")
		}
		n *= s
	}
	b := newBuilder(n, len(dims)*n)
	stride := make([]int, len(dims))
	stride[0] = 1
	for k := 1; k < len(dims); k++ {
		stride[k] = stride[k-1] * dims[k-1]
	}
	coord := make([]int, len(dims))
	for v := 0; v < n; v++ {
		rem := v
		for k := range dims {
			coord[k] = rem % dims[k]
			rem /= dims[k]
		}
		// With every side >= 3 the D·n edges {v, v+e_k} are distinct, so
		// none needs a membership test.
		for k := range dims {
			b.AddEdge(v, v-coord[k]*stride[k]+((coord[k]+1)%dims[k])*stride[k])
		}
	}
	return b.MustBuild(fmt.Sprintf("torus-%dd-%d", len(dims), n))
}

// BinaryTree returns the complete binary tree on n vertices (heap
// numbering: children of v are 2v+1, 2v+2). Trees have m = n-1, so
// Theorem 1.1's bound is dominated by the dmax^2 log n term.
func BinaryTree(n int) *Graph {
	if n < 2 {
		panic("graph: BinaryTree requires n >= 2")
	}
	b := newBuilder(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(v, (v-1)/2)
	}
	return b.MustBuild(fmt.Sprintf("bintree-%d", n))
}

// Lollipop returns the lollipop graph: a clique on k vertices with a path
// of n-k vertices attached to clique vertex 0. The classic worst case for
// random-walk cover time (Θ(n^3) for the simple walk when k ≈ 2n/3); used
// in E1 to stress Theorem 1.1's O(m + dmax^2 log n) shape.
func Lollipop(cliqueSize, pathLen int) *Graph {
	if cliqueSize < 2 || pathLen < 1 {
		panic("graph: Lollipop requires cliqueSize >= 2 and pathLen >= 1")
	}
	n := cliqueSize + pathLen
	b := newBuilder(n, cliqueSize*(cliqueSize-1)/2+pathLen)
	for u := 0; u < cliqueSize; u++ {
		for v := u + 1; v < cliqueSize; v++ {
			b.AddEdge(u, v)
		}
	}
	b.AddEdge(0, cliqueSize)
	for v := cliqueSize; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild(fmt.Sprintf("lollipop-%d-%d", cliqueSize, pathLen))
}

// Barbell returns two k-cliques joined by a path of bridgeLen vertices
// (bridgeLen may be 0, joining the cliques by a single edge).
func Barbell(cliqueSize, bridgeLen int) *Graph {
	if cliqueSize < 2 || bridgeLen < 0 {
		panic("graph: Barbell requires cliqueSize >= 2 and bridgeLen >= 0")
	}
	n := 2*cliqueSize + bridgeLen
	b := newBuilder(n, cliqueSize*(cliqueSize-1)+bridgeLen+1)
	addClique := func(lo int) {
		for u := lo; u < lo+cliqueSize; u++ {
			for v := u + 1; v < lo+cliqueSize; v++ {
				b.AddEdge(u, v)
			}
		}
	}
	addClique(0)
	addClique(cliqueSize + bridgeLen)
	if bridgeLen == 0 {
		b.AddEdge(0, cliqueSize)
	} else {
		b.AddEdge(0, cliqueSize)
		for v := cliqueSize; v+1 < cliqueSize+bridgeLen; v++ {
			b.AddEdge(v, v+1)
		}
		b.AddEdge(cliqueSize+bridgeLen-1, cliqueSize+bridgeLen)
	}
	return b.MustBuild(fmt.Sprintf("barbell-%d-%d", cliqueSize, bridgeLen))
}

// DoubleCycle returns the circulant graph C_n(1, 2): each vertex adjacent
// to its neighbours at distance 1 and 2 on the ring. 4-regular,
// non-bipartite for every n >= 5, with poor expansion — a regular graph
// whose gap 1-λ = Θ(1/n^2) violates Theorem 1.2's gap premise, used in
// tests of the premise check.
func DoubleCycle(n int) *Graph {
	if n < 5 {
		panic("graph: DoubleCycle requires n >= 5")
	}
	b := newBuilder(n, 2*n)
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
		b.AddEdge(v, (v+2)%n)
	}
	return b.MustBuild(fmt.Sprintf("doublecycle-%d", n))
}

// Chord returns the circulant graph C_n(1, 2, ..., k): a 2k-regular ring
// lattice. For k ≈ log n this is a weak expander used in small ablations.
func Chord(n, k int) *Graph {
	if n < 2*k+1 || k < 1 {
		panic("graph: Chord requires n >= 2k+1, k >= 1")
	}
	// The circulant's adjacency is known in closed form — neighbours of v
	// are v±1..v±k mod n, all distinct for n >= 2k+1 — so the CSR arrays
	// are built directly in sorted order. The Builder would add a hash
	// probe per edge and an edge table beside the CSR (over 10 bytes an
	// edge) at the 2·10^7-vertex scale of the engine benchmarks; this path
	// needs only the CSR and matches the Builder's output byte for byte
	// (TestChordMatchesBuilder).
	deg := 2 * k
	off := make([]int32, n+1)
	adj := make([]int32, n*deg)
	for v := 0; v <= n; v++ {
		off[v] = int32(v * deg)
	}
	nbr := make([]int32, 0, deg)
	for v := 0; v < n; v++ {
		nbr = nbr[:0]
		for j := -k; j <= k; j++ {
			if j == 0 {
				continue
			}
			nbr = append(nbr, int32(((v+j)%n+n)%n))
		}
		// Insertion sort: deg is tiny and the list is nearly sorted.
		for i := 1; i < len(nbr); i++ {
			for p := i; p > 0 && nbr[p] < nbr[p-1]; p-- {
				nbr[p], nbr[p-1] = nbr[p-1], nbr[p]
			}
		}
		copy(adj[v*deg:], nbr)
	}
	return &Graph{n: n, m: n * deg / 2, off: off, adj: adj,
		name: fmt.Sprintf("chord-%d-%d", n, k)}
}

// Spider returns the "star of paths": `legs` paths of `legLen` vertices
// each, all attached to a central vertex 0 (n = 1 + legs*legLen). A
// natural adversarial shape for cover-time conjectures: many long
// dead-ends that must each be walked to the tip.
func Spider(legs, legLen int) *Graph {
	if legs < 1 || legLen < 1 {
		panic("graph: Spider requires legs >= 1 and legLen >= 1")
	}
	n := 1 + legs*legLen
	b := newBuilder(n, n-1)
	for l := 0; l < legs; l++ {
		base := 1 + l*legLen
		b.AddEdge(0, base)
		for i := 0; i+1 < legLen; i++ {
			b.AddEdge(base+i, base+i+1)
		}
	}
	return b.MustBuild(fmt.Sprintf("spider-%d-%d", legs, legLen))
}

// Petersen returns the Petersen graph: 10 vertices, 3-regular,
// vertex-transitive, λ = 2/3 known in closed form — a spectral test vector.
func Petersen() *Graph {
	b := newBuilder(10, 15)
	// Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
	for i := 0; i < 5; i++ {
		b.AddEdge(i, (i+1)%5)
		b.AddEdge(5+i, 5+(i+2)%5)
		b.AddEdge(i, 5+i)
	}
	return b.MustBuild("petersen")
}
