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
//
// Every generator builds through a Builder, and a built Graph depends only
// on the set of edges added: its neighbour lists are sorted, and
// Builder.HasEdge, which the seeded generators consult before drawing
// again, answers exactly. How the Builder stores its edges can therefore
// change without moving a graph, trajectory or result byte;
// internal/graphspec/testdata/graphs.txt pins the instances every family
// builds, written by an earlier builder.
package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
//
// The edge set is one open-addressing table of packed keys u<<32|v with
// u < v, probed linearly from a multiplicative hash and kept at most
// three-quarters full; 0 marks an empty slot, since no edge packs to 0.
// HasEdge is exact, so a generator that tests an edge before adding it
// draws the same random numbers whatever the table's layout, and Build
// sorts every neighbour list, so the Graph depends only on the edge set,
// never on the order of insertion or of the table.
type Builder struct {
	n     int
	keys  []uint64 // power-of-two length; 0 = empty slot
	shift uint     // 64 - log2(len(keys)): hash bits kept
	count int
	err   error
}

// minTableSlots is the smallest table a builder starts with.
const minTableSlots = 16

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return newBuilder(n, 0) }

// newBuilder returns a builder whose table holds edges edges without
// growing; generators that know their edge count size it once.
func newBuilder(n, edges int) *Builder {
	b := &Builder{n: n}
	switch {
	case n <= 0:
		b.err = ErrNoVertices
		edges = 0
	case n > math.MaxInt32:
		// Vertices are int32 in the Graph and in the packed keys.
		b.err = fmt.Errorf("%w: n=%d exceeds the int32 vertex range", ErrVertexRange, n)
		edges = 0
	}
	slots := minTableSlots
	for 3*slots < 4*edges {
		slots *= 2
	}
	b.alloc(slots)
	return b
}

// alloc replaces the table with an empty one of the given power-of-two size.
func (b *Builder) alloc(slots int) {
	b.keys = make([]uint64, slots)
	b.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// find returns the slot holding key, or the empty slot where its probe
// ends if the table lacks it.
func (b *Builder) find(key uint64) (int, bool) {
	mask := len(b.keys) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> b.shift); ; i = (i + 1) & mask {
		switch b.keys[i] {
		case key:
			return i, true
		case 0:
			return i, false
		}
	}
}

// grow doubles the table and reinserts every key.
func (b *Builder) grow() {
	old := b.keys
	b.alloc(2 * len(old))
	for _, key := range old {
		if key != 0 {
			i, _ := b.find(key)
			b.keys[i] = key
		}
	}
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
	key := uint64(u)<<32 | uint64(v)
	i, dup := b.find(key)
	if dup {
		b.err = fmt.Errorf("%w: {%d,%d}", ErrDuplicate, u, v)
		return
	}
	if 4*(b.count+1) > 3*len(b.keys) {
		b.grow()
		i, _ = b.find(key)
	}
	b.keys[i] = key
	b.count++
}

// HasEdge reports whether {u,v} has already been added. Useful for
// generators that avoid duplicates by construction. It is exact for every
// pair: a loop or a pair with an end outside [0, n) was never added (and
// the loop {0,0} would pack to the empty-slot key).
func (b *Builder) HasEdge(u, v int) bool {
	if u < 0 || u >= b.n || v < 0 || v >= b.n || u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	_, ok := b.find(uint64(u)<<32 | uint64(v))
	return ok
}

// EdgeCount returns the number of edges added so far.
func (b *Builder) EdgeCount() int { return b.count }

// Build finalises the graph. name is a human-readable label used in tables
// and error messages.
//
// The CSR is filled straight from the table with no other n-sized array:
// off[v+2] first counts v's degree, so after a prefix sum off[v+1] is
// where v's list starts; placing the edges advances off[v+1] to where it
// ends, which is where v+1's starts.
func (b *Builder) Build(name string) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := b.n
	off := make([]int32, n+1)
	for _, key := range b.keys {
		if key != 0 {
			if u := int(key >> 32); u+2 <= n {
				off[u+2]++
			}
			if v := int(key & 0xffffffff); v+2 <= n {
				off[v+2]++
			}
		}
	}
	for i := 2; i <= n; i++ {
		off[i] += off[i-1]
	}
	adj := make([]int32, 2*b.count)
	for _, key := range b.keys {
		if key != 0 {
			u, v := int32(key>>32), int32(key&0xffffffff)
			adj[off[u+1]] = v
			off[u+1]++
			adj[off[v+1]] = u
			off[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return &Graph{n: n, m: b.count, off: off, adj: adj, name: name}, nil
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

// CSR returns the graph's compressed sparse rows: the neighbours of v
// are adj[off[v]:off[v+1]], sorted, and len(off) = n+1. Both slices alias
// the graph's storage and must not be modified. The frontier engine's
// word loops read them directly instead of slicing a list per vertex.
func (g *Graph) CSR() (off, adj []int32) { return g.off, g.adj }

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
