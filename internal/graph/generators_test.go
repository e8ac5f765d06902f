package graph

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/cobra/internal/xrand"
)

func mustValidate(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", g.Name(), err)
	}
}

func TestComplete(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10} {
		g := Complete(n)
		mustValidate(t, g)
		if g.M() != n*(n-1)/2 {
			t.Fatalf("K_%d has %d edges", n, g.M())
		}
		if reg, r := g.IsRegular(); !reg || r != n-1 {
			t.Fatalf("K_%d regularity", n)
		}
		if g.Diameter() != 1 {
			t.Fatalf("K_%d diameter %d", n, g.Diameter())
		}
	}
}

func TestCycle(t *testing.T) {
	for _, n := range []int{3, 4, 9, 10} {
		g := Cycle(n)
		mustValidate(t, g)
		if g.M() != n {
			t.Fatalf("C_%d edges %d", n, g.M())
		}
		if reg, r := g.IsRegular(); !reg || r != 2 {
			t.Fatalf("C_%d not 2-regular", n)
		}
		if got, want := g.Diameter(), n/2; got != want {
			t.Fatalf("C_%d diameter %d want %d", n, got, want)
		}
		if g.IsBipartite() != (n%2 == 0) {
			t.Fatalf("C_%d bipartite = %v", n, g.IsBipartite())
		}
	}
}

func TestPath(t *testing.T) {
	g := Path(10)
	mustValidate(t, g)
	if g.M() != 9 || g.Diameter() != 9 {
		t.Fatalf("path m=%d diam=%d", g.M(), g.Diameter())
	}
	if !g.IsBipartite() {
		t.Fatal("path should be bipartite")
	}
}

func TestStar(t *testing.T) {
	g := Star(8)
	mustValidate(t, g)
	if g.M() != 7 || g.Degree(0) != 7 || g.Diameter() != 2 {
		t.Fatal("star shape wrong")
	}
}

func TestCompleteBipartite(t *testing.T) {
	g := CompleteBipartite(3, 4)
	mustValidate(t, g)
	if g.M() != 12 || !g.IsBipartite() || !g.IsConnected() {
		t.Fatal("K_{3,4} shape wrong")
	}
}

func TestHypercube(t *testing.T) {
	for d := 1; d <= 6; d++ {
		g := Hypercube(d)
		mustValidate(t, g)
		n := 1 << uint(d)
		if g.N() != n || g.M() != d*n/2 {
			t.Fatalf("Q_%d: n=%d m=%d", d, g.N(), g.M())
		}
		if reg, r := g.IsRegular(); !reg || r != d {
			t.Fatalf("Q_%d not %d-regular", d, d)
		}
		if g.Diameter() != d {
			t.Fatalf("Q_%d diameter %d", d, g.Diameter())
		}
		if !g.IsBipartite() {
			t.Fatalf("Q_%d should be bipartite", d)
		}
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	mustValidate(t, g)
	if g.N() != 20 {
		t.Fatalf("grid n=%d", g.N())
	}
	// 2D grid edges: (s1-1)*s2 + s1*(s2-1).
	if g.M() != 3*5+4*4 {
		t.Fatalf("grid m=%d", g.M())
	}
	if g.Diameter() != 3+4 {
		t.Fatalf("grid diameter %d", g.Diameter())
	}
	g3 := Grid(3, 3, 3)
	mustValidate(t, g3)
	if g3.N() != 27 || g3.Diameter() != 6 {
		t.Fatal("3d grid shape wrong")
	}
}

func TestTorus(t *testing.T) {
	g := Torus(5, 5)
	mustValidate(t, g)
	if g.N() != 25 || g.M() != 50 {
		t.Fatalf("torus n=%d m=%d", g.N(), g.M())
	}
	if reg, r := g.IsRegular(); !reg || r != 4 {
		t.Fatal("5x5 torus not 4-regular")
	}
	if g.Diameter() != 4 {
		t.Fatalf("5x5 torus diameter %d", g.Diameter())
	}
	// Side-3 torus: neighbours at distance 1 and 2 coincide mod 3, the
	// generator must not duplicate them.
	g3 := Torus(3, 3)
	mustValidate(t, g3)
	if g3.M() != 18 {
		t.Fatalf("3x3 torus m=%d", g3.M())
	}
	odd := Torus(5)
	if odd.IsBipartite() {
		t.Fatal("odd 1-d torus (cycle) should not be bipartite")
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(15)
	mustValidate(t, g)
	if g.M() != 14 || !g.IsConnected() || !g.IsBipartite() {
		t.Fatal("binary tree shape wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("binary tree dmax %d", g.MaxDegree())
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 7)
	mustValidate(t, g)
	if g.N() != 12 || !g.IsConnected() {
		t.Fatal("lollipop shape wrong")
	}
	if g.M() != 5*4/2+7 {
		t.Fatalf("lollipop m=%d", g.M())
	}
	if g.Degree(0) != 5 { // clique + bridge
		t.Fatalf("lollipop joint degree %d", g.Degree(0))
	}
}

func TestBarbell(t *testing.T) {
	g := Barbell(4, 3)
	mustValidate(t, g)
	if g.N() != 11 || !g.IsConnected() {
		t.Fatal("barbell shape wrong")
	}
	g0 := Barbell(4, 0)
	mustValidate(t, g0)
	if g0.N() != 8 || !g0.IsConnected() {
		t.Fatal("barbell with 0 bridge wrong")
	}
	if g0.M() != 2*6+1 {
		t.Fatalf("barbell-0 m=%d", g0.M())
	}
}

func TestDoubleCycleAndChord(t *testing.T) {
	g := DoubleCycle(9)
	mustValidate(t, g)
	if reg, r := g.IsRegular(); !reg || r != 4 {
		t.Fatal("double cycle not 4-regular")
	}
	if g.IsBipartite() {
		t.Fatal("double cycle should not be bipartite")
	}
	c := Chord(15, 3)
	mustValidate(t, c)
	if reg, r := c.IsRegular(); !reg || r != 6 {
		t.Fatal("chord graph not 6-regular")
	}
}

// Chord builds its CSR arrays directly; the output must match the
// Builder construction byte for byte (the dense engine draws neighbours
// by index, so adjacency order is trajectory-relevant).
func TestChordMatchesBuilder(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{7, 1}, {9, 4}, {15, 3}, {64, 2}, {101, 5}} {
		fast := Chord(tc.n, tc.k)
		mustValidate(t, fast)
		b := NewBuilder(tc.n)
		for v := 0; v < tc.n; v++ {
			for j := 1; j <= tc.k; j++ {
				u := (v + j) % tc.n
				if !b.HasEdge(v, u) {
					b.AddEdge(v, u)
				}
			}
		}
		ref := b.MustBuild("ref")
		if fast.N() != ref.N() || fast.M() != ref.M() {
			t.Fatalf("chord-%d-%d: shape %d/%d vs %d/%d", tc.n, tc.k, fast.N(), fast.M(), ref.N(), ref.M())
		}
		for v := 0; v < tc.n; v++ {
			fn, rn := fast.Neighbors(v), ref.Neighbors(v)
			if len(fn) != len(rn) {
				t.Fatalf("chord-%d-%d: degree of %d differs: %d vs %d", tc.n, tc.k, v, len(fn), len(rn))
			}
			for i := range fn {
				if fn[i] != rn[i] {
					t.Fatalf("chord-%d-%d: neighbour %d of %d differs: %d vs %d", tc.n, tc.k, i, v, fn[i], rn[i])
				}
			}
		}
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	mustValidate(t, g)
	if g.N() != 10 || g.M() != 15 {
		t.Fatal("petersen shape wrong")
	}
	if reg, r := g.IsRegular(); !reg || r != 3 {
		t.Fatal("petersen not cubic")
	}
	if g.Diameter() != 2 {
		t.Fatalf("petersen diameter %d", g.Diameter())
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := xrand.New(7)
	g, err := ErdosRenyi(200, 0.05, rng)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	if !g.IsConnected() {
		t.Fatal("ER sample not connected")
	}
	// Expected m = p * C(n,2) = 0.05 * 19900 = 995; allow wide slack.
	if g.M() < 700 || g.M() > 1300 {
		t.Fatalf("ER edge count %d implausible", g.M())
	}
}

func TestErdosRenyiDense(t *testing.T) {
	rng := xrand.New(8)
	g, err := ErdosRenyi(30, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 30*29/2 {
		t.Fatalf("ER p=1 gave m=%d", g.M())
	}
}

func TestErdosRenyiErrors(t *testing.T) {
	rng := xrand.New(9)
	if _, err := ErdosRenyi(1, 0.5, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("n=1 accepted")
	}
	if _, err := ErdosRenyi(10, 0, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("p=0 accepted")
	}
	if _, err := ErdosRenyi(10, 1.5, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("p>1 accepted")
	}
	// Far below connectivity threshold: should exhaust attempts.
	if _, err := ErdosRenyi(400, 0.001, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("sub-threshold p unexpectedly produced a connected graph")
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(11)
	for _, tc := range []struct{ n, r int }{{50, 3}, {64, 4}, {40, 8}} {
		g, err := RandomRegular(tc.n, tc.r, rng)
		if err != nil {
			t.Fatalf("n=%d r=%d: %v", tc.n, tc.r, err)
		}
		mustValidate(t, g)
		if reg, r := g.IsRegular(); !reg || r != tc.r {
			t.Fatalf("sample not %d-regular", tc.r)
		}
		if !g.IsConnected() {
			t.Fatal("sample disconnected")
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	rng := xrand.New(12)
	if _, err := RandomRegular(5, 3, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("odd n*r accepted")
	}
	if _, err := RandomRegular(3, 3, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("n <= r accepted")
	}
	if _, err := RandomRegular(10, 0, rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("r=0 accepted")
	}
}

func TestRingExpander(t *testing.T) {
	rng := xrand.New(13)
	g, err := RingExpander(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	mustValidate(t, g)
	if !g.IsConnected() {
		t.Fatal("ring expander disconnected")
	}
	if g.MaxDegree() > 3+2 {
		t.Fatalf("ring expander dmax %d implausible", g.MaxDegree())
	}
	if _, err := RingExpander(7, rng); err == nil {
		t.Fatal("odd n accepted")
	}
}

func TestRandomTree(t *testing.T) {
	rng := xrand.New(14)
	for _, n := range []int{2, 3, 10, 100} {
		g, err := RandomTree(n, rng)
		if err != nil {
			t.Fatal(err)
		}
		mustValidate(t, g)
		if g.M() != n-1 {
			t.Fatalf("tree on %d vertices has %d edges", n, g.M())
		}
		if !g.IsConnected() {
			t.Fatalf("tree on %d vertices disconnected", n)
		}
	}
	if _, err := RandomTree(1, rng); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := RandomRegular(60, 3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomRegular(60, 3, xrand.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatal("same seed produced different graphs")
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatal("same seed produced different graphs")
			}
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Cycle(2) },
		func() { Path(1) },
		func() { Star(1) },
		func() { Hypercube(0) },
		func() { Grid() },
		func() { Grid(1) },
		func() { Torus(2) },
		func() { BinaryTree(1) },
		func() { Lollipop(1, 1) },
		func() { Barbell(1, 0) },
		func() { DoubleCycle(4) },
		func() { Chord(5, 3) },
		func() { CompleteBipartite(0, 3) },
		// The size guards, which graphspec's own size rule now
		// shadows: each must refuse before allocating.
		func() { Hypercube(40) },
		func() { Torus(1000000, 1000000) },
		func() { Grid(99999, 99999) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSpider(t *testing.T) {
	g := Spider(4, 5)
	mustValidate(t, g)
	if g.N() != 21 || g.M() != 20 {
		t.Fatalf("spider n=%d m=%d", g.N(), g.M())
	}
	if g.Degree(0) != 4 {
		t.Fatalf("spider hub degree %d", g.Degree(0))
	}
	if !g.IsConnected() {
		t.Fatal("spider disconnected")
	}
	if g.Diameter() != 10 {
		t.Fatalf("spider diameter %d", g.Diameter())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Spider(0,1) did not panic")
		}
	}()
	Spider(0, 1)
}

func TestErdosRenyiRejectsNaN(t *testing.T) {
	rng := xrand.New(3)
	if _, err := ErdosRenyi(10, math.NaN(), rng); !errors.Is(err, ErrGenerator) {
		t.Fatal("NaN p accepted (would loop forever in the skip sampler)")
	}
}
