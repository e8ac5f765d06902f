package graphspec

import (
	"errors"
	"testing"

	"github.com/repro/cobra/internal/graph"
)

func TestParseAllFamilies(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"complete:10", 10},
		{"cycle:12", 12},
		{"path:9", 9},
		{"star:7", 7},
		{"hypercube:4", 16},
		{"grid:3:4", 12},
		{"torus:3:5", 15},
		{"bintree:15", 15},
		{"lollipop:4:3", 7},
		{"barbell:3:2", 8},
		{"bipartite:3:4", 7},
		{"doublecycle:9", 9},
		{"chord:11:2", 11},
		{"petersen", 10},
		{"er:60:0.15", 60},
		{"rreg:20:3", 20},
		{"rtree:25", 25},
		{"ba:40:3", 40},
		{"ws:30:4:0.2", 30},
	}
	for _, tc := range cases {
		g, err := Parse(tc.spec, 7)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if g.N() != tc.n {
			t.Fatalf("%s: n = %d, want %d", tc.spec, g.N(), tc.n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
	}
}

func TestParseCaseAndWhitespace(t *testing.T) {
	g, err := Parse("  Complete:5 ", 1)
	if err != nil || g.N() != 5 {
		t.Fatalf("case/space handling broken: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "unknown:5", "complete", "complete:x", "er:50", "er:50:zz",
		"grid", "lollipop:4", "cycle:2", "hypercube:0", "torus:2:2",
		"ba:5", "ba:3:3", "ws:30:4", "ws:30:3:0.1", "ws:30:4:raw",
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 1); !errors.Is(err, ErrSpec) && err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	// Oversize specs pass Canonical; the generators' size guards must
	// refuse them before allocating anything.
	for _, spec := range []string{"torus:1000000:1000000", "hypercube:40", "grid:99999:99999"} {
		if _, err := Parse(spec, 1); !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q) = %v, want ErrSpec", spec, err)
		}
	}
}

func TestParseSeedDeterminism(t *testing.T) {
	a, err := Parse("rreg:30:3", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("rreg:30:3", 42)
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, "seeded parse", a, b)
}

// Canonical and Parse read one grammar: extra arguments fail both with
// ErrSpec, and spaced ones pass both, building the graph of their
// canonical form.
func TestOneGrammar(t *testing.T) {
	for _, spec := range oneGrammarSpecs[:5] {
		if _, err := Canonical(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("Canonical(%q) = %v, want ErrSpec", spec, err)
		}
		if _, err := Parse(spec, 1); !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q) = %v, want ErrSpec", spec, err)
		}
	}
	for _, spec := range oneGrammarSpecs[5:] {
		canon, err := Canonical(spec)
		if err != nil {
			t.Fatalf("Canonical(%q): %v", spec, err)
		}
		g, err := Parse(spec, 3)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		gc, err := Parse(canon, 3)
		if err != nil {
			t.Fatalf("Parse(%q): %v", canon, err)
		}
		sameGraph(t, spec, g, gc)
	}
}

// sameGraph fails unless a and b have the same n, m and neighbour lists.
func sameGraph(t *testing.T, what string, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("%s: different graphs (n=%d/%d m=%d/%d)", what, a.N(), b.N(), a.M(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("%s: vertex %d has degree %d vs %d", what, v, len(na), len(nb))
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("%s: vertex %d neighbour %d is %d vs %d", what, v, i, na[i], nb[i])
			}
		}
	}
}
