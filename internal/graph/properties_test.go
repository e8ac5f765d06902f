package graph

import (
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/xrand"
)

func TestIsConnected(t *testing.T) {
	if !Cycle(5).IsConnected() {
		t.Fatal("cycle disconnected")
	}
	// Two disjoint edges.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.MustBuild("2K2")
	if g.IsConnected() {
		t.Fatal("disjoint union reported connected")
	}
	// Single vertex counts as connected.
	single := NewBuilder(1)
	sg, err := single.Build("K1")
	if err != nil {
		t.Fatal(err)
	}
	if !sg.IsConnected() {
		t.Fatal("K1 not connected")
	}
}

// TestIsConnectedMemoized: concurrent first calls agree with a fresh
// traversal (run it under -race), and once answered a call allocates
// nothing, so kernels built on a shared graph pay the traversal once.
func TestIsConnectedMemoized(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	for _, g := range []*Graph{Torus(16, 16), b.MustBuild("2P3")} {
		want := g.traverseConnected()
		got := make(chan bool, 8)
		for i := 0; i < cap(got); i++ {
			go func() { got <- g.IsConnected() }()
		}
		for i := 0; i < cap(got); i++ {
			if c := <-got; c != want {
				t.Fatalf("%s: concurrent IsConnected = %v, want %v", g.Name(), c, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { g.IsConnected() }); allocs != 0 {
			t.Fatalf("%s: repeat IsConnected allocates %v times", g.Name(), allocs)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for v := 0; v < 5; v++ {
		if d[v] != v {
			t.Fatalf("BFS path distance d[%d]=%d", v, d[v])
		}
	}
	// Disconnected: unreachable gets -1.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g2 := b.MustBuild("e+v")
	d2 := g2.BFS(0)
	if d2[2] != -1 {
		t.Fatalf("unreachable distance %d", d2[2])
	}
	if g2.Eccentricity(0) != -1 {
		t.Fatal("eccentricity of disconnected should be -1")
	}
	if g2.Diameter() != -1 {
		t.Fatal("diameter of disconnected should be -1")
	}
}

func TestDiameterKnownValues(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{Complete(6), 1},
		{Cycle(10), 5},
		{Cycle(11), 5},
		{Path(7), 6},
		{Star(9), 2},
		{Hypercube(5), 5},
		{Grid(3, 7), 2 + 6},
	}
	for _, tc := range cases {
		if got := tc.g.Diameter(); got != tc.want {
			t.Errorf("%s diameter = %d, want %d", tc.g.Name(), got, tc.want)
		}
	}
}

func TestDiameterApproxIsLowerBoundAndExactOnTrees(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 10; i++ {
		tr, err := RandomTree(60, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tr.DiameterApprox() != tr.Diameter() {
			t.Fatal("double sweep not exact on a tree")
		}
	}
	for _, g := range []*Graph{Cycle(12), Hypercube(4), Petersen(), Lollipop(6, 5)} {
		if g.DiameterApprox() > g.Diameter() {
			t.Fatalf("%s: approx %d exceeds exact %d", g.Name(), g.DiameterApprox(), g.Diameter())
		}
	}
}

func TestCoverTimeLowerBound(t *testing.T) {
	// K_n: diameter 1, so bound is ceil(log2 n).
	if got := Complete(16).CoverTimeLowerBound(); got != 4 {
		t.Fatalf("K16 lower bound %d", got)
	}
	// Long path: diameter dominates.
	if got := Path(100).CoverTimeLowerBound(); got != 99 {
		t.Fatalf("P100 lower bound %d", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Cycle(6)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a neighbour entry to break symmetry.
	old := g.adj[1]
	g.adj[1] = g.adj[0]
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupted adjacency")
	}
	g.adj[1] = old
	if err := g.Validate(); err != nil {
		t.Fatal("restore failed")
	}
}

// Property: every generated random graph validates and satisfies the
// handshake lemma.
func TestRandomGraphInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		n := 20 + rng.Intn(60)
		if n%2 == 1 {
			n++
		}
		g, err := RandomRegular(n, 4, rng)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		deg := 0
		for v := 0; v < g.N(); v++ {
			deg += g.Degree(v)
		}
		return deg == 2*g.M() && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances obey the triangle condition |d(u)-d(v)| <= 1 for
// every edge {u,v}.
func TestBFSLipschitzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, err := ErdosRenyi(40, 0.15, rng)
		if err != nil {
			return true // disconnected draw exhausted attempts; skip
		}
		d := g.BFS(0)
		for v := 0; v < g.N(); v++ {
			for _, u := range g.Neighbors(v) {
				diff := d[v] - d[int(u)]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBipartiteKnownFamilies(t *testing.T) {
	if !Hypercube(3).IsBipartite() {
		t.Fatal("hypercube not bipartite")
	}
	if !Grid(4, 4).IsBipartite() {
		t.Fatal("grid not bipartite")
	}
	if Complete(4).IsBipartite() {
		t.Fatal("K4 bipartite")
	}
	if Petersen().IsBipartite() {
		t.Fatal("petersen bipartite")
	}
	if !CompleteBipartite(2, 5).IsBipartite() {
		t.Fatal("K_{2,5} not bipartite")
	}
}
