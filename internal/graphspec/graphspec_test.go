package graphspec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

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
	// Oversize specs fail in Canonical, on the family table's size rule,
	// before the generators' own guards (Hypercube's d <= 30, Grid's and
	// Torus's 2^31 vertices) are reached; TestGeneratorPanics in
	// internal/graph keeps those guards tested.
	for _, spec := range []string{"torus:1000000:1000000", "hypercube:40", "grid:99999:99999"} {
		if _, err := Canonical(spec); !errors.Is(err, ErrSpec) {
			t.Errorf("Canonical(%q) = %v, want ErrSpec", spec, err)
		}
		if _, err := Parse(spec, 1); !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q) = %v, want ErrSpec", spec, err)
		}
	}
}

// A spec that asks for more than 2^24 vertices plus edges fails in
// Canonical and Parse at once, with an error naming its size, while the
// largest graphs the experiments plan for still pass. (Every spec in
// testdata/graphs.txt is built through Parse by TestGraphFingerprints.)
func TestSizeBound(t *testing.T) {
	for _, spec := range []string{"hypercube:30", "complete:100000", "er:100000:0.5", "torus:4096:4096"} {
		start := time.Now()
		_, cerr := Canonical(spec)
		_, perr := Parse(spec, 1)
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s: rejecting took %v", spec, el)
		}
		for _, err := range []error{cerr, perr} {
			if !errors.Is(err, ErrSpec) || !strings.Contains(fmt.Sprint(err), "n+m") {
				t.Errorf("%s: got %v, want an ErrSpec naming n+m", spec, err)
			}
		}
	}
	for _, spec := range []string{"rreg:1048576:3", "ba:1048576:3", "torus:1024:1024", "hypercube:20"} {
		if _, err := Canonical(spec); err != nil {
			t.Errorf("Canonical(%q): %v", spec, err)
		}
	}
	// torus:2048:2730 asks for n + m = 3n = 16773120 <= 2^24.
	if _, err := Canonical("torus:2048:2730"); err != nil {
		t.Errorf("Canonical(torus:2048:2730): %v", err)
	}
	if _, err := Canonical("torus:2048:2731"); !errors.Is(err, ErrSpec) {
		t.Errorf("torus:2048:2731 (n+m = %d) accepted", 3*2048*2731)
	}
}

// The size rule is exact for every deterministic family: it equals the
// built graph's n + m.
func TestSizeRuleExact(t *testing.T) {
	for _, spec := range []string{
		"complete:10", "cycle:12", "path:9", "star:7", "hypercube:4", "bintree:15",
		"doublecycle:20", "grid:3:4", "grid:2:3:5", "torus:3:5", "torus:3:4:5",
		"lollipop:5:4", "barbell:4:3", "barbell:4:0", "bipartite:3:5", "chord:20:3", "petersen",
	} {
		g, err := Parse(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		parts := strings.Split(spec, ":")
		var a args
		for _, p := range parts[1:] {
			v, err := strconv.Atoi(p)
			if err != nil {
				t.Fatal(err)
			}
			a.ints = append(a.ints, v)
		}
		if got, want := families[parts[0]].size(a), float64(g.N()+g.M()); got != want {
			t.Errorf("%s: size rule %v, built n+m %v", spec, got, want)
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
