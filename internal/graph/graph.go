// Package graph provides the undirected-graph substrate on which every
// process in this repository runs: a compact CSR (compressed sparse row)
// adjacency representation, generators for the graph families used in the
// paper's theorems and examples, and the structural properties those
// theorems are parameterised by (degree statistics, connectivity,
// bipartiteness, diameter).
//
// Graphs are simple (no self-loops, no parallel edges) and undirected:
// every edge {u, v} appears in both adjacency lists. Vertices are dense
// integers in [0, n).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Common construction errors.
var (
	ErrNoVertices   = errors.New("graph: graph must have at least one vertex")
	ErrSelfLoop     = errors.New("graph: self-loop rejected")
	ErrDuplicate    = errors.New("graph: duplicate edge rejected")
	ErrVertexRange  = errors.New("graph: vertex out of range")
	ErrDisconnected = errors.New("graph: graph is not connected")
)

// Graph is an immutable simple undirected graph in CSR form.
// adj holds the concatenated neighbour lists; off[v]..off[v+1] delimits the
// neighbours of v. Neighbour lists are sorted, which makes membership
// testing O(log d) and representation canonical.
type Graph struct {
	n    int
	m    int
	off  []int32
	adj  []int32
	name string

	// connOnce guards connected, the memoized IsConnected answer: the
	// graph never changes, so one traversal serves every caller.
	connOnce  sync.Once
	connected bool
}

// Builder accumulates edges and produces a Graph. It validates simplicity
// as edges arrive.
type Builder struct {
	n     int
	edges map[[2]int32]struct{}
	err   error
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	b := &Builder{n: n, edges: make(map[[2]int32]struct{})}
	if n <= 0 {
		b.err = ErrNoVertices
	}
	return b
}

// AddEdge records the undirected edge {u, v}. Errors (range, loop,
// duplicate) are sticky and reported by Build.
func (b *Builder) AddEdge(u, v int) {
	if b.err != nil {
		return
	}
	switch {
	case u < 0 || u >= b.n || v < 0 || v >= b.n:
		b.err = fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexRange, u, v, b.n)
		return
	case u == v:
		b.err = fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
		return
	}
	if u > v {
		u, v = v, u
	}
	key := [2]int32{int32(u), int32(v)}
	if _, dup := b.edges[key]; dup {
		b.err = fmt.Errorf("%w: {%d,%d}", ErrDuplicate, u, v)
		return
	}
	b.edges[key] = struct{}{}
}

// HasEdge reports whether {u,v} has already been added. Useful for
// generators that avoid duplicates by construction.
func (b *Builder) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := b.edges[[2]int32{int32(u), int32(v)}]
	return ok
}

// EdgeCount returns the number of edges added so far.
func (b *Builder) EdgeCount() int { return len(b.edges) }

// Build finalises the graph. name is a human-readable label used in tables
// and error messages.
func (b *Builder) Build(name string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	deg := make([]int32, b.n)
	for e := range b.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	off := make([]int32, b.n+1)
	for v := 0; v < b.n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]int32, 2*len(b.edges))
	cursor := make([]int32, b.n)
	copy(cursor, off[:b.n])
	for e := range b.edges {
		u, v := e[0], e[1]
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	g := &Graph{n: b.n, m: len(b.edges), off: off, adj: adj, name: name}
	for v := 0; v < b.n; v++ {
		nb := g.neighborsMut(v)
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return g, nil
}

// MustBuild is Build that panics on error; for generators whose inputs are
// validated upfront.
func (b *Builder) MustBuild(name string) *Graph {
	g, err := b.Build(name)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Name returns the label given at construction.
func (g *Graph) Name() string { return g.name }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the sorted neighbour list of v. The slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

func (g *Graph) neighborsMut(v int) []int32 {
	return g.adj[g.off[v]:g.off[v+1]]
}

// Neighbor returns the i-th neighbour of v (0-based). This is the hot call
// of every simulation round: selecting a uniform neighbour is
// Neighbor(v, rng.Intn(Degree(v))).
func (g *Graph) Neighbor(v, i int) int {
	return int(g.adj[g.off[v]+int32(i)])
}

// HasEdge reports whether {u, v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	nb := g.Neighbors(u)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nb[mid] < int32(v):
			lo = mid + 1
		case nb[mid] > int32(v):
			hi = mid
		default:
			return true
		}
	}
	return false
}

// MaxDegree returns the maximum vertex degree (dmax in the paper).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum vertex degree.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// IsRegular reports whether every vertex has the same degree, and that
// degree.
func (g *Graph) IsRegular() (bool, int) {
	if g.n == 0 {
		return true, 0
	}
	r := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if g.Degree(v) != r {
			return false, 0
		}
	}
	return true, r
}

// DegreeSum returns the sum of all degrees, i.e. 2m; for a vertex subset
// this is the quantity d(S) tracked throughout Section 3 of the paper.
func (g *Graph) DegreeSum() int { return 2 * g.m }

// String implements fmt.Stringer with a short structural summary.
func (g *Graph) String() string {
	return fmt.Sprintf("%s{n=%d m=%d dmax=%d}", g.name, g.n, g.m, g.MaxDegree())
}
