package graph

import (
	"errors"
	"math"
	"strconv"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g, err := b.Build("test")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Name() != "test" {
		t.Fatalf("name %q", g.Name())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("edge membership wrong")
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1)
	if _, err := b.Build("x"); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("err = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsDuplicate(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // same undirected edge
	if _, err := b.Build("x"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 3)
	if _, err := b.Build("x"); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("err = %v, want ErrVertexRange", err)
	}
}

func TestBuilderRejectsEmptyGraph(t *testing.T) {
	if _, err := NewBuilder(0).Build("x"); !errors.Is(err, ErrNoVertices) {
		t.Fatalf("err = %v, want ErrNoVertices", err)
	}
}

// Vertices are int32 in the Graph, so a builder refuses more of them
// before it accepts an edge. Where int is 32 bits wide no count goes
// beyond int32.
func TestBuilderRejectsVertexCountBeyondInt32(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits wide")
	}
	b := NewBuilder(farInt(math.MaxInt32 + 1))
	b.AddEdge(0, farInt(1<<32))
	if b.HasEdge(0, farInt(1<<32)) || b.EdgeCount() != 0 {
		t.Fatal("edge accepted")
	}
	if _, err := b.Build("x"); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("err = %v, want ErrVertexRange", err)
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(5, 6) // bad
	b.AddEdge(0, 1) // good, but error already latched
	if _, err := b.Build("x"); err == nil {
		t.Fatal("sticky error lost")
	}
}

func TestNeighborsSortedAndNeighborIndexing(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(2, 1)
	g := b.MustBuild("sorted")
	nb := g.Neighbors(2)
	want := []int32{0, 1, 3, 4}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors(2) = %v", nb)
		}
		if g.Neighbor(2, i) != int(want[i]) {
			t.Fatalf("Neighbor(2,%d) = %d", i, g.Neighbor(2, i))
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(10)
	if g.MaxDegree() != 9 || g.MinDegree() != 1 {
		t.Fatalf("star degrees: max %d min %d", g.MaxDegree(), g.MinDegree())
	}
	if reg, _ := g.IsRegular(); reg {
		t.Fatal("star reported regular")
	}
	c := Cycle(7)
	reg, r := c.IsRegular()
	if !reg || r != 2 {
		t.Fatalf("cycle regularity: %v %d", reg, r)
	}
	if c.DegreeSum() != 2*c.M() {
		t.Fatal("handshake identity failed")
	}
}

func TestStringSummary(t *testing.T) {
	s := Cycle(5).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
