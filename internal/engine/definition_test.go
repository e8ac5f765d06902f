package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// The definition reference. Dense BIPS rounds and sparse rounds with at
// least n/64 candidates run the same word evaluator, so the sparse-
// against-dense tests compare it with itself on most rounds of small
// graphs. Here a test-local round builds C_{t+1} respectively A_{t+1}
// vertex by vertex from the processes' definition, sharing no code with
// the kernel: each vertex's randomness is xrand.StreamValue(seed,
// t<<32|v), read as the fractional-branch Bernoulli(ρ), then per
// particle or pull the lazy coin (stay iff Bool) and Uint64n(deg) onto
// the neighbour list. Kernels in all three modes must match it after
// every round. The generator draws the graph, the parameters (b up to 4,
// so closed kernels reach their continuation after three draws), the
// BIPS source (a quarter of the time in the last bitset word) and, before
// some rounds, a frontier installed at a drawn density, so dense rounds
// run at every hit rate, or a near-full one, every vertex but a few
// (nearFull), so Adaptive BIPS rounds run on the complement.

// defCase is one generated comparison.
type defCase struct {
	g      *graph.Graph
	kind   Kind
	par    Params
	start  int // C_0 = {start} for COBRA, the source for BIPS
	seed   uint64
	rounds int
	script uint64 // seeds the installed frontiers
	shape  int    // if nonzero, round 1 installs nearFull of this shape
}

// genDefCase draws a case on g from rng.
func genDefCase(rng *xrand.RNG, g *graph.Graph, kind Kind) defCase {
	par := Params{Branch: 1 + rng.Intn(4), Lazy: rng.Intn(4) == 0}
	if rng.Intn(3) == 0 {
		par.Rho = 0.5
	}
	n := g.N()
	start := rng.Intn(n)
	if rng.Intn(4) == 0 {
		last := (n - 1) &^ 63 // first vertex of the last word
		start = last + rng.Intn(n-last)
	}
	return defCase{g: g, kind: kind, par: par, start: start, seed: rng.Uint64(),
		rounds: 10 + rng.Intn(40), script: rng.Uint64()}
}

// defState is the reference's process state, in plain slices.
type defState struct {
	g         *graph.Graph
	kind      Kind
	par       Params
	seed      uint64
	source    int
	round     int
	frontier  []bool
	covered   []bool
	sent      int64
	coalesced int64
}

func newDefState(c defCase) *defState {
	n := c.g.N()
	s := &defState{g: c.g, kind: c.kind, par: c.par, seed: c.seed, source: c.start,
		frontier: make([]bool, n), covered: make([]bool, n)}
	s.frontier[c.start] = true
	s.covered[c.start] = true
	return s
}

// draws returns the count of v's particles (pulls) this round and
// consumes v's stream up to the first of them.
func (s *defState) draws(v int) (xrand.RNG, int) {
	rng := xrand.StreamValue(s.seed, uint64(s.round)<<32|uint64(v))
	b := s.par.Branch
	if rng.Bernoulli(s.par.Rho) {
		b++
	}
	return rng, b
}

// target draws one particle's (pull's) vertex from v.
func (s *defState) target(rng *xrand.RNG, v int) int {
	if s.par.Lazy && rng.Bool() {
		return v
	}
	return s.g.Neighbor(v, int(rng.Uint64n(uint64(s.g.Degree(v)))))
}

// step runs one round from the definition.
func (s *defState) step() {
	n := s.g.N()
	next := make([]bool, n)
	if s.kind == Cobra {
		var sent int64
		for v := 0; v < n; v++ {
			if !s.frontier[v] {
				continue
			}
			rng, b := s.draws(v)
			for i := 0; i < b; i++ {
				next[s.target(&rng, v)] = true
			}
			sent += int64(b)
		}
		count := 0
		for v, in := range next {
			if in {
				count++
				s.covered[v] = true
			}
		}
		s.sent += sent
		s.coalesced += sent - int64(count)
	} else {
		for u := 0; u < n; u++ {
			if u == s.source {
				next[u] = true
				continue
			}
			rng, b := s.draws(u)
			for i := 0; i < b; i++ {
				if s.frontier[s.target(&rng, u)] {
					next[u] = true
				}
			}
		}
	}
	s.frontier = next
	s.round++
}

// install replaces the frontier, as Kernel.InstallFrontier does.
func (s *defState) install(members []int) {
	s.frontier = make([]bool, s.g.N())
	for _, v := range members {
		s.frontier[v] = true
		s.covered[v] = true
	}
	s.round++
}

// matches compares every observable of k with the reference.
func (s *defState) matches(k *Kernel) error {
	count, vol := 0, 0
	for v, in := range s.frontier {
		if k.Frontier().Contains(v) != in {
			return fmt.Errorf("vertex %d: frontier membership %v, definition %v", v, !in, in)
		}
		if in {
			count++
			vol += s.g.Degree(v)
		}
		if s.kind == Cobra && k.Covered().Contains(v) != s.covered[v] {
			return fmt.Errorf("vertex %d: covered %v, definition %v", v, !s.covered[v], s.covered[v])
		}
	}
	switch {
	case k.FrontierCount() != count:
		return fmt.Errorf("FrontierCount %d, definition %d", k.FrontierCount(), count)
	case k.Frontier().Count() != count: // no stray bit past n in the last word
		return fmt.Errorf("frontier popcount %d, definition %d", k.Frontier().Count(), count)
	case k.FrontierVolume() != vol:
		return fmt.Errorf("FrontierVolume %d, definition %d", k.FrontierVolume(), vol)
	case k.Sent() != s.sent || k.Coalesced() != s.coalesced:
		return fmt.Errorf("Sent/Coalesced %d/%d, definition %d/%d", k.Sent(), k.Coalesced(), s.sent, s.coalesced)
	}
	return nil
}

// The complement shapes nearFull draws: no vertex, one, two, the BIPS
// source (with one more vertex half the time), vertices of the last
// bitset word only, and a few drawn at random.
const (
	shapeNone = 1 + iota
	shapeOne
	shapeTwo
	shapeSource
	shapeLastWord
	shapeFew
	numShapes = shapeFew
)

// nearFull returns every vertex of c's graph but a small complement of
// the given shape, drawn from script.
func nearFull(c defCase, shape int, script *xrand.RNG) []int {
	n := c.g.N()
	out := make(map[int]bool)
	switch shape {
	case shapeOne:
		out[script.Intn(n)] = true
	case shapeTwo:
		u := script.Intn(n)
		out[u] = true
		out[(u+1+script.Intn(n-1))%n] = true
	case shapeSource:
		out[c.start] = true
		if script.Bool() {
			out[script.Intn(n)] = true
		}
	case shapeLastWord:
		last := (n - 1) &^ 63 // first vertex of the last word
		for v := last; v < n; v++ {
			if script.Intn(4) == 0 {
				out[v] = true
			}
		}
		out[last+script.Intn(n-last)] = true
	case shapeFew:
		for i := script.Intn(1 + n/16); i >= 0; i-- {
			out[script.Intn(n)] = true
		}
	}
	members := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !out[v] {
			members = append(members, v)
		}
	}
	return members
}

// roundsMatchDefinition runs one kernel per mode beside the reference and
// reports the first round on which one of them differs, and how many
// rounds the Adaptive kernel ran on the complement (bipsComplement).
func roundsMatchDefinition(c defCase) (complementRounds int, err error) {
	var ks [len(reprModes)]*Kernel
	for i, mode := range reprModes {
		par := c.par
		par.Mode = mode
		var err error
		if c.kind == Cobra {
			ks[i], err = NewCobra(c.g, par, []int{c.start}, c.seed)
		} else {
			ks[i], err = NewBips(c.g, par, c.start, c.seed)
		}
		if err != nil {
			return 0, err
		}
	}
	ref := newDefState(c)
	script := xrand.New(c.script)
	n := c.g.N()
	for r := 1; r <= c.rounds; r++ {
		var members []int
		switch {
		case r == 1 && c.shape != 0:
			members = nearFull(c, c.shape, script)
		case script.Intn(4) == 0:
			density := script.Float64()
			members = []int{script.Intn(n)}
			for v := 0; v < n; v++ {
				if script.Float64() < density {
					members = append(members, v)
				}
			}
		case script.Intn(6) == 0:
			members = nearFull(c, 1+script.Intn(numShapes), script)
		}
		if members != nil {
			ref.install(members)
			for _, k := range ks {
				k.InstallFrontier(members)
			}
		}
		ref.step()
		for i, k := range ks {
			if k.kind == Bips && k.useDense() && k.useComplement() {
				complementRounds++
			}
			k.Step()
			if err := ref.matches(k); err != nil {
				return complementRounds, fmt.Errorf("round %d, mode %s: %w", ref.round, modeNames[reprModes[i]], err)
			}
		}
	}
	return complementRounds, nil
}

// checkDefinition runs both kinds on g with cases drawn from rng.
func checkDefinition(g *graph.Graph, rng *xrand.RNG) error {
	for _, kind := range []Kind{Cobra, Bips} {
		c := genDefCase(rng, g, kind)
		if _, err := roundsMatchDefinition(c); err != nil {
			return fmt.Errorf("%s kind %d %+v start %d seed %d: %w", g.Name(), kind, c.par, c.start, c.seed, err)
		}
	}
	return nil
}

func TestRoundMatchesDefinition(t *testing.T) {
	f := func(caseSeed uint64) bool {
		rng := xrand.New(caseSeed)
		if err := checkDefinition(randomConnectedGraph(rng), rng); err != nil {
			t.Logf("caseSeed %d: %v", caseSeed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, g := range fixedLayouts(t) {
		for caseSeed := uint64(1); caseSeed <= 8; caseSeed++ {
			if err := checkDefinition(g, xrand.New(caseSeed)); err != nil {
				t.Fatalf("caseSeed %d: %v", caseSeed, err)
			}
		}
	}
}

// Every BIPS setting of b ∈ {1..4}, ρ ∈ {0, 0.5} and laziness, from
// every complement shape, on the fixed layouts: round 1 installs the
// near-full frontier, so Adaptive runs its first rounds on the complement
// (a complement of the source or of the last partial word included), and
// ForceDense scans the same rounds. Each setting and shape must reach the
// complement path on some layout.
func TestComplementRoundsMatchDefinition(t *testing.T) {
	rng := xrand.New(26)
	for b := 1; b <= 4; b++ {
		for _, rho := range []float64{0, 0.5} {
			for _, lazy := range []bool{false, true} {
				par := Params{Branch: b, Rho: rho, Lazy: lazy}
				for shape := 1; shape <= numShapes; shape++ {
					reached := 0
					for _, g := range fixedLayouts(t) {
						c := defCase{g: g, kind: Bips, par: par, start: rng.Intn(g.N()), seed: rng.Uint64(),
							rounds: 6, script: rng.Uint64(), shape: shape}
						if shape == shapeSource || rng.Bool() {
							last := (g.N() - 1) &^ 63
							c.start = last + rng.Intn(g.N()-last) // the source in the last word
						}
						comp, err := roundsMatchDefinition(c)
						if err != nil {
							t.Fatalf("%s %+v shape %d start %d seed %d: %v", g.Name(), par, shape, c.start, c.seed, err)
						}
						reached += comp
					}
					if reached == 0 {
						t.Errorf("%+v shape %d: no round ran on the complement", par, shape)
					}
				}
			}
		}
	}
}

func FuzzRoundMatchesDefinition(f *testing.F) {
	for _, s := range []uint64{0, 1, 2, 0x5eed} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, caseSeed uint64) {
		rng := xrand.New(caseSeed)
		if err := checkDefinition(randomConnectedGraph(rng), rng); err != nil {
			t.Fatal(err)
		}
	})
}

// Lemire's tail, forced. A closed kernel's draw reaches its rejection
// tail with probability below deg/2^64, so no random test reaches the
// fallback that then decides the vertex: pullsFrom and pushFrom, called
// with the index of the draw that fell in the tail. Each is tested
// directly, for every draw index of b up to 4, against the definition
// reference's draws: a BIPS vertex whose earlier pulls all missed (the
// installed frontier avoids their targets) must decide as the remaining
// pulls do, and a COBRA vertex must mark exactly its remaining targets.
func TestTailFallbackMatchesDefinition(t *testing.T) {
	gs := append(fixedLayouts(t), randomConnectedGraph(xrand.New(5)))
	rng := xrand.New(11)
	for _, g := range gs {
		n := g.N()
		for b := 1; b <= 4; b++ {
			for i := 0; i < b; i++ {
				for trial := 0; trial < 40; trial++ {
					seed, u := rng.Uint64(), rng.Intn(n)
					ref := &defState{g: g, par: Params{Branch: b}, seed: seed}
					ref.round = 1 + rng.Intn(100)
					stream, _ := ref.draws(u)
					targets := make([]int, b)
					for j := range targets {
						targets[j] = ref.target(&stream, u)
					}
					if err := bipsFallbackMatches(g, b, i, seed, ref.round, u, targets, rng); err != nil {
						t.Fatalf("%s b=%d draw %d vertex %d seed %d round %d: %v", g.Name(), b, i, u, seed, ref.round, err)
					}
					if err := cobraFallbackMatches(g, b, i, seed, ref.round, u, targets); err != nil {
						t.Fatalf("%s b=%d draw %d vertex %d seed %d round %d: %v", g.Name(), b, i, u, seed, ref.round, err)
					}
				}
			}
		}
	}
}

// bipsFallbackMatches installs a frontier of drawn density that avoids
// u's first i targets at the given round and checks that pullsFrom(u, i)
// reports whether one of the remaining targets is in it.
func bipsFallbackMatches(g *graph.Graph, b, i int, seed uint64, round, u int, targets []int, rng *xrand.RNG) error {
	k, err := NewBips(g, Params{Branch: b}, 0, seed)
	if err != nil {
		return err
	}
	missed := make(map[int]bool)
	for _, t := range targets[:i] {
		missed[t] = true
	}
	density := rng.Float64()
	var members []int
	for v := 0; v < g.N(); v++ {
		if !missed[v] && rng.Float64() < density {
			members = append(members, v)
		}
	}
	for k.Round() < round-1 {
		k.InstallFrontier(nil)
	}
	k.InstallFrontier(members) // k.Round() == round
	want := false
	for _, t := range targets[i:] {
		want = want || k.Frontier().Contains(t)
	}
	if got := k.pullsFrom(u, i); got != want {
		return fmt.Errorf("pullsFrom = %v, definition %v", got, want)
	}
	return nil
}

// cobraFallbackMatches checks that pushFrom(u, i) at the given round
// marks exactly u's targets from the i-th on and counts them.
func cobraFallbackMatches(g *graph.Graph, b, i int, seed uint64, round, u int, targets []int) error {
	k, err := NewCobra(g, Params{Branch: b}, []int{u}, seed)
	if err != nil {
		return err
	}
	for k.Round() < round {
		k.InstallFrontier([]int{u})
	}
	var list []int32
	if sent := k.pushFrom(u, i, &list); sent != b-i {
		return fmt.Errorf("pushFrom sent %d, want %d", sent, b-i)
	}
	want := make(map[int]bool)
	for _, t := range targets[i:] {
		want[t] = true
	}
	if len(list) != len(want) {
		return fmt.Errorf("pushFrom marked %v, definition %v", list, targets[i:])
	}
	for _, t := range list {
		if !want[int(t)] {
			return fmt.Errorf("pushFrom marked %v, definition %v", list, targets[i:])
		}
	}
	return nil
}

// A closed dense COBRA round at b = 2 takes both draws before it tests
// Lemire's tail, once per vertex, and routes a vertex with a tail draw to
// pushTail: it marks draw 0's target if only draw 1 fell in the tail and
// sends the rest through pushFrom. pushTail is driven directly here, for
// the first tail at draw 0 (draw 1's tail bit set at random) and at draw
// 1, with draw 0's target garbage when it is a tail draw: it must mark
// exactly the definition's targets.
func TestPushTailMatchesDefinition(t *testing.T) {
	gs := append(fixedLayouts(t), randomConnectedGraph(xrand.New(6)))
	rng := xrand.New(12)
	for _, g := range gs {
		n := g.N()
		for i := 0; i < 2; i++ {
			for trial := 0; trial < 80; trial++ {
				seed, u := rng.Uint64(), rng.Intn(n)
				ref := &defState{g: g, par: Params{Branch: 2}, seed: seed}
				ref.round = 1 + rng.Intn(100)
				stream, _ := ref.draws(u)
				targets := []int{ref.target(&stream, u), ref.target(&stream, u)}
				tail, t1 := uint64(2), int32(targets[0])
				if i == 0 {
					tail = 1 | uint64(rng.Intn(2))<<1
					t1 = int32(rng.Intn(n)) // a tail draw's target is discarded
				}
				if err := pushTailMatches(g, seed, ref.round, u, tail, t1, targets); err != nil {
					t.Fatalf("%s first tail %d (mask %b) vertex %d seed %d round %d: %v",
						g.Name(), i, tail, u, seed, ref.round, err)
				}
			}
		}
	}
}

// pushTailMatches checks that pushTail(u, tail, t1) at the given round
// marks exactly the set of targets in next.
func pushTailMatches(g *graph.Graph, seed uint64, round, u int, tail uint64, t1 int32, targets []int) error {
	k, err := NewCobra(g, Params{Branch: 2}, []int{u}, seed)
	if err != nil {
		return err
	}
	for k.Round() < round {
		k.InstallFrontier([]int{u})
	}
	k.pushTail(u, tail, t1)
	want := make(map[int]bool)
	for _, t := range targets {
		want[t] = true
	}
	if got := k.next.Count(); got != len(want) {
		return fmt.Errorf("pushTail marked %d vertices, definition %v", got, targets)
	}
	for t := range want {
		if !k.next.Contains(t) {
			return fmt.Errorf("pushTail left %d unmarked, definition %v", t, targets)
		}
	}
	return nil
}

// Lemire's tail inside the evaluators. The splitmix64 finalizer behind
// StreamWord and the scrambler behind Draw1 both map 0 to 0, so a seed
// that puts v's stream counter at -2·golden (golden is the splitmix64
// increment) makes v's first closed-form draw 0: hi = lo = 0 < deg, a
// tail at draw 0. Round 0 from C_0 = {v} (COBRA), or from a source beside
// v (BIPS), then runs each evaluator's own tail routing — the b = 2 dense
// arm, the per-draw loop dense and sparse, and bipsWord's first pass —
// and every mode must match the definition, for b = 1 to 4, over a few
// more rounds as well.
func TestEvaluatorTailMatchesDefinition(t *testing.T) {
	golden := uint64(0x9e3779b97f4a7c15)
	for _, g := range fixedLayouts(t) {
		for _, v := range []int{0, g.N() / 3, g.N() - 1} {
			key := streamKey(0, v)
			seed := -(2 * golden) ^ xrand.StreamCounter(0, key)
			if xrand.Draw1(xrand.StreamWord(xrand.StreamCounter(seed, key), 1)) != 0 {
				t.Fatalf("seed %#x: vertex %d's first draw is not 0", seed, v)
			}
			for b := 1; b <= 4; b++ {
				for _, kind := range []Kind{Cobra, Bips} {
					c := defCase{g: g, kind: kind, par: Params{Branch: b}, start: v, seed: seed}
					if kind == Bips {
						c.start = g.Neighbor(v, 0) // the source, so v is a candidate
					}
					for _, mode := range reprModes {
						par := c.par
						par.Mode = mode
						var k *Kernel
						var err error
						if kind == Cobra {
							k, err = NewCobra(g, par, []int{c.start}, seed)
						} else {
							k, err = NewBips(g, par, c.start, seed)
						}
						if err != nil {
							t.Fatal(err)
						}
						ref := newDefState(c)
						for r := 0; r < 4; r++ {
							ref.step()
							k.Step()
							if err := ref.matches(k); err != nil {
								t.Fatalf("%s kind %d b=%d vertex %d mode %s round %d: %v",
									g.Name(), kind, b, v, modeNames[mode], r, err)
							}
						}
					}
				}
			}
		}
	}
}

// fixedLayouts are the word layouts TestSparseDenseAgreeFixedGraphs
// pins: Hypercube(9) fills exactly 8 words, BarabasiAlbert(777, 3) ends
// in a partial 13th word, and Complete(50) fits inside one word.
func fixedLayouts(tb testing.TB) []*graph.Graph {
	tb.Helper()
	ba, err := graph.BarabasiAlbert(777, 3, xrand.New(2))
	if err != nil {
		tb.Fatal(err)
	}
	return []*graph.Graph{graph.Hypercube(9), ba, graph.Complete(50)}
}
