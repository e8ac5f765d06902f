// Package graphspec parses compact command-line graph specifications of
// the form "family:arg1:arg2", shared by the cmd/ tools, the batch
// subsystem and the cobrad wire format. Examples:
//
//	complete:256        K_256
//	cycle:1000          the 1000-cycle
//	path:500            the 500-path
//	star:100            K_{1,99}
//	hypercube:10        Q_10 (1024 vertices)
//	grid:32:32          32x32 grid
//	torus:15:15         15x15 torus
//	bintree:255         complete binary tree
//	lollipop:60:40      60-clique + 40-path
//	barbell:40:20       two 40-cliques, 20-path bridge
//	bipartite:50:50     K_{50,50}
//	doublecycle:200     circulant C_200(1,2)
//	chord:200:4         circulant C_200(1..4)
//	petersen            the Petersen graph
//	er:500:0.02         connected G(500, 0.02)        (seeded)
//	rreg:500:3          random 3-regular on 500       (seeded)
//	rtree:500           uniform random tree           (seeded)
//	ba:500:3            Barabási–Albert, 3 per vertex (seeded)
//	ws:500:6:0.1        Watts–Strogatz k=6 beta=0.1   (seeded)
//
// The family table in this file is the grammar, and every reader goes
// through it: Canonical checks a spec against it and normalises it, and
// Parse checks it the same way and then builds the graph. The family name
// is case-insensitive, the name and every argument are trimmed of
// surrounding space ("BA :500: 3" is "ba:500:3"), and a spec with too few
// or too many arguments fails for every reader.
//
// Every row also gives the size of the graph its arguments ask for, n + m
// (exact for the deterministic families, the generator's edge target for
// the seeded ones), and a spec that asks for more than 2^24 fails for
// every reader before anything is built: one short spec such as
// "hypercube:30" would otherwise make a server build for minutes and
// exhaust its memory.
package graphspec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// ErrSpec flags an unparseable specification.
var ErrSpec = errors.New("graphspec: invalid specification")

// maxSize bounds n + m, the vertices plus edges a spec may ask for:
// about 4× ba:1048576:3 (n + m ≈ 4.2·10^6), the largest graph the
// experiments plan for.
const maxSize = 1 << 24

// argKind is one expected argument of a family.
type argKind int

const (
	argInt argKind = iota
	argFloat
)

// args holds a spec's parsed arguments in order of appearance: the
// integer ones in ints, the real ones in floats.
type args struct {
	ints   []int
	floats []float64
}

// family is one row of the grammar: the arguments a family takes, the
// size n + m of the graph they ask for, and the constructor that builds
// it from them. A dims family takes one or more integer dimensions
// instead of a fixed list. size works in float64, so no argument can
// overflow it; a NaN size leaves the arguments to the generator's checks.
type family struct {
	kinds []argKind
	dims  bool
	size  func(a args) float64
	build func(a args, seed uint64) (*graph.Graph, error)
}

// recovered runs a deterministic generator, which panics on
// out-of-range arguments, and returns its panic as an ErrSpec error. The
// seeded generators return errors instead, so a panic in one of them is a
// bug and is left to propagate.
func recovered(fn func() *graph.Graph) (g *graph.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("%w: %v", ErrSpec, r)
		}
	}()
	return fn(), nil
}

func int1(fn func(int) *graph.Graph, size func(n float64) float64) family {
	return family{kinds: []argKind{argInt},
		size: func(a args) float64 { return size(float64(a.ints[0])) },
		build: func(a args, _ uint64) (*graph.Graph, error) {
			return recovered(func() *graph.Graph { return fn(a.ints[0]) })
		}}
}

func int2(fn func(int, int) *graph.Graph, size func(x, y float64) float64) family {
	return family{kinds: []argKind{argInt, argInt},
		size: func(a args) float64 { return size(float64(a.ints[0]), float64(a.ints[1])) },
		build: func(a args, _ uint64) (*graph.Graph, error) {
			return recovered(func() *graph.Graph { return fn(a.ints[0], a.ints[1]) })
		}}
}

// dims' size receives the vertex count, the product of the sides.
func dims(fn func(...int) *graph.Graph, size func(n float64, sides []int) float64) family {
	return family{dims: true,
		size: func(a args) float64 {
			n := 1.0
			for _, s := range a.ints {
				n *= float64(s)
			}
			return size(n, a.ints)
		},
		build: func(a args, _ uint64) (*graph.Graph, error) {
			return recovered(func() *graph.Graph { return fn(a.ints...) })
		}}
}

// families is the grammar. Seeded families draw from xrand.New(seed).
// The size rules round each product explicitly, float64(x*y) + z, so no
// target fuses it into a multiply-add and the 2^24 bound decides the same
// on every target (see package stats).
var families = map[string]family{
	"complete":    int1(graph.Complete, func(n float64) float64 { return n + float64(n*(n-1)/2) }),
	"cycle":       int1(graph.Cycle, func(n float64) float64 { return 2 * n }),
	"path":        int1(graph.Path, func(n float64) float64 { return 2*n - 1 }),
	"star":        int1(graph.Star, func(n float64) float64 { return 2*n - 1 }),
	"hypercube":   int1(graph.Hypercube, func(d float64) float64 { return math.Exp2(d) * (1 + float64(d/2)) }),
	"bintree":     int1(graph.BinaryTree, func(n float64) float64 { return 2*n - 1 }),
	"doublecycle": int1(graph.DoubleCycle, func(n float64) float64 { return 3 * n }),
	"grid": dims(graph.Grid, func(n float64, sides []int) float64 {
		m := 0.0
		for _, s := range sides {
			m += float64(s-1) * n / float64(s)
		}
		return n + m
	}),
	"torus":     dims(graph.Torus, func(n float64, sides []int) float64 { return n * float64(1+len(sides)) }),
	"lollipop":  int2(graph.Lollipop, func(k, l float64) float64 { return k + l + float64(k*(k-1)/2) + l }),
	"barbell":   int2(graph.Barbell, func(k, l float64) float64 { return 2*k + l + float64(k*(k-1)) + l + 1 }),
	"bipartite": int2(graph.CompleteBipartite, func(a, b float64) float64 { return a + b + float64(a*b) }),
	"chord":     int2(graph.Chord, func(n, k float64) float64 { return n + float64(n*k) }),
	"petersen": {size: func(args) float64 { return 10 + 15 }, build: func(args, uint64) (*graph.Graph, error) {
		return graph.Petersen(), nil
	}},
	"er": {kinds: []argKind{argInt, argFloat},
		size: func(a args) float64 { n := float64(a.ints[0]); return n + float64(a.floats[0]*n*(n-1)/2) },
		build: func(a args, seed uint64) (*graph.Graph, error) {
			return graph.ErdosRenyi(a.ints[0], a.floats[0], xrand.New(seed))
		}},
	"rreg": {kinds: []argKind{argInt, argInt},
		size: func(a args) float64 { n := float64(a.ints[0]); return n + float64(n*float64(a.ints[1])/2) },
		build: func(a args, seed uint64) (*graph.Graph, error) {
			return graph.RandomRegular(a.ints[0], a.ints[1], xrand.New(seed))
		}},
	"rtree": {kinds: []argKind{argInt},
		size: func(a args) float64 { return 2*float64(a.ints[0]) - 1 },
		build: func(a args, seed uint64) (*graph.Graph, error) {
			return graph.RandomTree(a.ints[0], xrand.New(seed))
		}},
	"ba": {kinds: []argKind{argInt, argInt},
		size: func(a args) float64 {
			n, m := float64(a.ints[0]), float64(a.ints[1])
			return n + float64((n-m)*m)
		},
		build: func(a args, seed uint64) (*graph.Graph, error) {
			return graph.BarabasiAlbert(a.ints[0], a.ints[1], xrand.New(seed))
		}},
	"ws": {kinds: []argKind{argInt, argInt, argFloat},
		size: func(a args) float64 { n := float64(a.ints[0]); return n + float64(n*float64(a.ints[1])/2) },
		build: func(a args, seed uint64) (*graph.Graph, error) {
			return graph.WattsStrogatz(a.ints[0], a.ints[1], a.floats[0], xrand.New(seed))
		}},
}

// Canonical returns the canonical form of spec: lower-cased family name
// and numerically normalized arguments ("  BA:0500:3 " → "ba:500:3",
// "ws:500:06:0.10" → "ws:500:6:0.1"). It errors on unknown families and
// malformed argument lists, without building the graph, so it is the
// cheap syntax check the job service runs at submission time and the
// graph cache's key: two specs describe the same family instance iff
// their canonical forms are equal. Canonical(Canonical(s)) ==
// Canonical(s). A spec whose graph would exceed maxSize vertices plus
// edges fails here too, with an ErrSpec error that names its size.
func Canonical(spec string) (string, error) {
	canon, _, err := parse(spec)
	return canon, err
}

// Parse builds the graph described by spec. Random families draw from the
// given seed deterministically. A deterministic generator's panic on
// out-of-range arguments comes back as an ErrSpec error.
func Parse(spec string, seed uint64) (*graph.Graph, error) {
	_, build, err := parse(spec)
	if err != nil {
		return nil, err
	}
	return build(seed)
}

// parse checks spec against the family table, and its size against
// maxSize, returning its canonical form and its family's constructor
// bound to its arguments.
func parse(spec string) (string, func(seed uint64) (*graph.Graph, error), error) {
	parts := strings.Split(strings.TrimSpace(spec), ":")
	name := strings.ToLower(strings.TrimSpace(parts[0]))
	if name == "" {
		return "", nil, fmt.Errorf("%w: empty spec", ErrSpec)
	}
	fam, ok := families[name]
	if !ok {
		return "", nil, fmt.Errorf("%w: unknown family %q (see package doc for the list)", ErrSpec, name)
	}
	raw := parts[1:]
	kinds := fam.kinds
	if fam.dims {
		if len(raw) == 0 {
			return "", nil, fmt.Errorf("%w: %s needs dimensions", ErrSpec, name)
		}
		kinds = make([]argKind, len(raw)) // all argInt
	}
	if len(raw) != len(kinds) {
		return "", nil, fmt.Errorf("%w: %s takes %d arguments, got %d", ErrSpec, name, len(kinds), len(raw))
	}
	var a args
	var sb strings.Builder
	sb.WriteString(name)
	for i, s := range raw {
		s = strings.TrimSpace(s)
		sb.WriteByte(':')
		switch kinds[i] {
		case argInt:
			v, err := strconv.Atoi(s)
			if err != nil {
				return "", nil, fmt.Errorf("%w: %s argument %q not an integer", ErrSpec, name, s)
			}
			a.ints = append(a.ints, v)
			sb.WriteString(strconv.Itoa(v))
		case argFloat:
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return "", nil, fmt.Errorf("%w: %s argument %q not a number", ErrSpec, name, s)
			}
			a.floats = append(a.floats, v)
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	canon := sb.String()
	if size := fam.size(a); size > maxSize {
		return "", nil, fmt.Errorf("%w: %s asks for n+m = %.4g vertices and edges, above the limit of %d",
			ErrSpec, canon, size, maxSize)
	}
	return canon, func(seed uint64) (*graph.Graph, error) { return fam.build(a, seed) }, nil
}
