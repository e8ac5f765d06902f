package graphspec

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// oneGrammarSpecs probe where two readers of a spec grammar drift apart:
// extra arguments (the first five, which every reader must reject) and
// space around a name or an argument (the last three, which every reader
// must accept).
var oneGrammarSpecs = []string{
	"complete:16:7", "petersen:5", "rreg:64:3:9", "ws:200:6:0.25:1", "er:64:0.2:x",
	"ba: 500:3", "BA :500:3", "grid:4: 4",
}

// FuzzParse pins the one-grammar property: Canonical and Parse read the
// same family table, so a spec Canonical rejects fails Parse with
// ErrSpec, and a spec Canonical accepts builds the same graph as its
// canonical form (or both fail in the generator).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"complete:10", "cycle:5", "grid:3:3", "er:20:0.5", "rreg:10:3",
		"petersen", "", "unknown", "complete:", "complete:-5", "grid:0",
		"torus:1000000:1000000", "hypercube:40", "er:5:nan", "lollipop:2",
	}
	for _, s := range append(seeds, oneGrammarSpecs...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		canon, cerr := Canonical(spec)
		if cerr != nil {
			if _, err := Parse(spec, 1); !errors.Is(err, ErrSpec) {
				t.Fatalf("Canonical rejects %q (%v) but Parse returned %v", spec, cerr, err)
			}
			return
		}
		if again, err := Canonical(canon); err != nil || again != canon {
			t.Fatalf("Canonical not idempotent on %q: %q, %v", canon, again, err)
		}
		if fuzzTooBig(canon) {
			return
		}
		g, err := Parse(spec, 1)
		gc, errc := Parse(canon, 1)
		if (err == nil) != (errc == nil) {
			t.Fatalf("Parse(%q) = %v but Parse(%q) = %v", spec, err, canon, errc)
		}
		if err != nil {
			return
		}
		// Accepted specs must yield structurally valid graphs.
		if g.N() < 1 {
			t.Fatalf("spec %q produced empty graph", spec)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("spec %q produced invalid graph: %v", spec, err)
		}
		sameGraph(t, spec+" vs "+canon, g, gc)
	})
}

// fuzzTooBig reports whether the fuzz target must not build the graph a
// canonical spec describes: the generators would build it rather than
// reject it, and its size estimate exceeds 2^20. The estimate is d·2^d
// for hypercube:d, n·D for a D-dimensional grid or torus on n vertices,
// and otherwise the product of the integer arguments, the first one
// squared (cliques are quadratic in it), times their count. Canonical
// already rejects every spec that asks for more than 2^24 vertices plus
// edges ("hypercube:30", "torus:1000000:1000000"), so those never reach
// this check; a spec just below that bound takes seconds and hundreds of
// megabytes to build, which would slow the fuzzer to a crawl while
// checking nothing a small one does not.
func fuzzTooBig(canon string) bool {
	parts := strings.Split(canon, ":")
	var ints []float64
	for _, p := range parts[1:] {
		if v, err := strconv.Atoi(p); err == nil {
			ints = append(ints, float64(v))
		} // else a real-valued argument
	}
	switch parts[0] {
	case "hypercube":
		d := ints[0]
		return d >= 1 && d <= 30 && d*math.Exp2(d) > 1<<20
	case "grid", "torus":
		n := 1.0
		for _, s := range ints {
			if s < 2 {
				return false
			}
			n *= s
		}
		return n <= 1<<31 && n*float64(len(ints)) > 1<<20
	}
	w := 1.0
	for i, v := range ints {
		x := math.Max(math.Abs(v), 1)
		if i == 0 {
			x *= x
		}
		w *= x
	}
	return w*math.Max(float64(len(ints)), 1) > 1<<20
}
