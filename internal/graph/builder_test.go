package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// Differential tests of Builder against edgeModel, a map-based reference
// written straight from Builder's contract: every AddEdge, HasEdge and
// EdgeCount answer, the first (sticky) error, and Build's output must
// agree with it.

// Builder operations.
const (
	opAdd = iota
	opHas
	opCount
	opBuild
)

type builderOp struct {
	kind int
	u, v int
}

// builderSession is one random Builder session: a vertex count and the
// operations applied to NewBuilder(n) in order.
type builderSession struct {
	n   int
	ops []builderOp
}

// farVertices are ends far outside any test graph, beyond int32 included
// where int is 64 bits wide.
var farVertices = []int{farInt(-1 << 40), farInt(math.MinInt32 - 1), farInt(1<<32 + 1), farInt(1 << 33), farInt(math.MaxInt32 + 1), math.MaxInt}

// farInt returns x, clamped to the int range on a target whose int is
// 32 bits wide.
func farInt(x int64) int {
	switch {
	case x > math.MaxInt:
		return math.MaxInt
	case x < math.MinInt:
		return math.MinInt
	}
	return int(x)
}

// Generate implements quick.Generator. Half the sessions make no invalid
// AddEdge call, so they build graphs of up to a few hundred edges; the
// other half make one at a random point (a duplicate, a reversed
// duplicate, a loop or an out-of-range end) and keep going, so the error
// must stick. HasEdge asks about added pairs in either order and about
// arbitrary pairs, out-of-range ones included.
func (builderSession) Generate(r *rand.Rand, size int) reflect.Value {
	s := builderSession{n: r.Intn(45) - 2}
	nops := r.Intn(8*size + 1)
	errAt := -1
	if r.Intn(2) == 0 && nops > 0 {
		errAt = r.Intn(nops)
	}
	var added [][2]int
	used := make(map[[2]int]bool)
	anyVertex := func() int {
		switch k := r.Intn(20); {
		case k == 0:
			return farVertices[r.Intn(len(farVertices))]
		case k <= 2 || s.n <= 0:
			return s.n - 2 + r.Intn(5) // the boundary: n-2 … n+2
		default:
			return r.Intn(s.n)
		}
	}
	// freshPair returns a pair AddEdge accepts, if one turns up quickly.
	freshPair := func() (int, int, bool) {
		for try := 0; s.n >= 2 && try < 20; try++ {
			u, v := r.Intn(s.n), r.Intn(s.n)
			if u != v && !used[[2]int{min(u, v), max(u, v)}] {
				return u, v, true
			}
		}
		return 0, 0, false
	}
	badPair := func() (int, int) {
		if len(added) > 0 && r.Intn(2) == 0 {
			e := added[r.Intn(len(added))]
			if r.Intn(2) == 0 {
				return e[1], e[0]
			}
			return e[0], e[1]
		}
		if r.Intn(2) == 0 {
			u := anyVertex()
			return u, u
		}
		return anyVertex(), s.n + r.Intn(3)
	}
	for i := 0; i < nops; i++ {
		op := builderOp{kind: opAdd}
		switch k := r.Intn(100); {
		case i == errAt || (errAt >= 0 && i > errAt && k < 10):
			op.u, op.v = badPair()
		case k < 55:
			u, v, ok := freshPair()
			if !ok {
				op.kind = opCount
				break
			}
			op.u, op.v = u, v
			if errAt < 0 || i < errAt {
				used[[2]int{min(u, v), max(u, v)}] = true
				added = append(added, [2]int{u, v})
			}
		case k < 70 && len(added) > 0:
			e := added[r.Intn(len(added))]
			op.kind, op.u, op.v = opHas, e[0], e[1]
			if r.Intn(2) == 0 {
				op.u, op.v = e[1], e[0]
			}
		case k < 90:
			op.kind, op.u, op.v = opHas, anyVertex(), anyVertex()
		case k < 97:
			op.kind = opCount
		default:
			op.kind = opBuild
		}
		s.ops = append(s.ops, op)
	}
	return reflect.ValueOf(s)
}

// GoString keeps quick.Check's report of a failing session short.
func (s builderSession) GoString() string {
	names := [...]string{opAdd: "add", opHas: "has", opCount: "count", opBuild: "build"}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d:", s.n)
	for _, op := range s.ops {
		switch op.kind {
		case opAdd, opHas:
			fmt.Fprintf(&sb, " %s(%d,%d)", names[op.kind], op.u, op.v)
		default:
			fmt.Fprintf(&sb, " %s", names[op.kind])
		}
	}
	return sb.String()
}

// edgeModel is the reference builder.
type edgeModel struct {
	n     int
	edges map[[2]int]bool
	err   error
}

func newEdgeModel(n int) *edgeModel {
	m := &edgeModel{n: n, edges: make(map[[2]int]bool)}
	if n <= 0 {
		m.err = ErrNoVertices
	}
	return m
}

func (m *edgeModel) add(u, v int) {
	if m.err != nil {
		return
	}
	switch {
	case u < 0 || u >= m.n || v < 0 || v >= m.n:
		m.err = fmt.Errorf("%w: edge {%d,%d} with n=%d", ErrVertexRange, u, v, m.n)
	case u == v:
		m.err = fmt.Errorf("%w: vertex %d", ErrSelfLoop, u)
	case m.edges[[2]int{min(u, v), max(u, v)}]:
		m.err = fmt.Errorf("%w: {%d,%d}", ErrDuplicate, min(u, v), max(u, v))
	default:
		m.edges[[2]int{min(u, v), max(u, v)}] = true
	}
}

func (m *edgeModel) has(u, v int) bool { return m.edges[[2]int{min(u, v), max(u, v)}] }

// checkBuild compares Build's result with the model's.
func (m *edgeModel) checkBuild(b *Builder) error {
	g, err := b.Build("model")
	if m.err != nil {
		for _, sentinel := range []error{ErrNoVertices, ErrVertexRange, ErrSelfLoop, ErrDuplicate} {
			if errors.Is(m.err, sentinel) && !errors.Is(err, sentinel) {
				return fmt.Errorf("Build error %v, want one wrapping %v", err, sentinel)
			}
		}
		if err == nil || err.Error() != m.err.Error() {
			return fmt.Errorf("Build error %v, want %v", err, m.err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("Build: %v", err)
	}
	if g.N() != m.n || g.M() != len(m.edges) {
		return fmt.Errorf("Build: n=%d m=%d, want n=%d m=%d", g.N(), g.M(), m.n, len(m.edges))
	}
	want := make([][]int32, m.n)
	for e := range m.edges {
		want[e[0]] = append(want[e[0]], int32(e[1]))
		want[e[1]] = append(want[e[1]], int32(e[0]))
	}
	for v := range want {
		slices.Sort(want[v])
		if got := g.Neighbors(v); !slices.Equal(got, want[v]) {
			return fmt.Errorf("Build: Neighbors(%d) = %v, want %v", v, got, want[v])
		}
	}
	return nil
}

// run applies the session to a Builder and to the model, returning the
// first disagreement.
func (s builderSession) run() error {
	b, m := NewBuilder(s.n), newEdgeModel(s.n)
	for i, op := range s.ops {
		switch op.kind {
		case opAdd:
			b.AddEdge(op.u, op.v)
			m.add(op.u, op.v)
		case opHas:
			if got, want := b.HasEdge(op.u, op.v), m.has(op.u, op.v); got != want {
				return fmt.Errorf("op %d: HasEdge(%d, %d) = %t, want %t", i, op.u, op.v, got, want)
			}
		case opCount:
			if got, want := b.EdgeCount(), len(m.edges); got != want {
				return fmt.Errorf("op %d: EdgeCount() = %d, want %d", i, got, want)
			}
		case opBuild:
			if err := m.checkBuild(b); err != nil {
				return fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	if got, want := b.EdgeCount(), len(m.edges); got != want {
		return fmt.Errorf("EdgeCount() = %d, want %d", got, want)
	}
	return m.checkBuild(b)
}

func TestBuilderMatchesModel(t *testing.T) {
	prop := func(s builderSession) bool {
		if err := s.run(); err != nil {
			t.Logf("n=%d, %d ops: %v", s.n, len(s.ops), err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBuilder checks the model property on sessions decoded from fuzz
// bytes: the first byte chooses n in [-2, 61], then every three bytes are
// one operation whose ends fall in [-2, n+2) or, for the bytes 0xfe and
// 0xff, far outside any graph.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 1, 2, 1, 2, 0, 0})
	f.Add([]byte{12, 0, 3, 3, 0, 4, 9, 1, 9, 4, 0, 9, 4, 3, 0, 0})
	f.Add([]byte{0, 0, 1, 2})
	f.Add([]byte{40, 0, 0xff, 3, 1, 0xfe, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s := builderSession{n: int(data[0])%64 - 2}
		span := max(s.n, 0) + 4
		end := func(c byte) int {
			switch c {
			case 0xff:
				return farInt(1<<32 + 1)
			case 0xfe:
				return farInt(math.MinInt32 - 1)
			}
			return int(c)%span - 2
		}
		for i := 1; i+2 < len(data); i += 3 {
			s.ops = append(s.ops, builderOp{kind: int(data[i]) % 4, u: end(data[i+1]), v: end(data[i+2])})
		}
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
	})
}
