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
// run at every hit rate.

// defCase is one generated comparison.
type defCase struct {
	g      *graph.Graph
	kind   Kind
	par    Params
	start  int // C_0 = {start} for COBRA, the source for BIPS
	seed   uint64
	rounds int
	script uint64 // seeds the installed frontiers
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
	case k.FrontierVolume() != vol:
		return fmt.Errorf("FrontierVolume %d, definition %d", k.FrontierVolume(), vol)
	case k.Sent() != s.sent || k.Coalesced() != s.coalesced:
		return fmt.Errorf("Sent/Coalesced %d/%d, definition %d/%d", k.Sent(), k.Coalesced(), s.sent, s.coalesced)
	}
	return nil
}

// roundsMatchDefinition runs one kernel per mode beside the reference and
// reports the first round on which one of them differs.
func roundsMatchDefinition(c defCase) error {
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
			return err
		}
	}
	ref := newDefState(c)
	script := xrand.New(c.script)
	n := c.g.N()
	for r := 1; r <= c.rounds; r++ {
		if script.Intn(4) == 0 {
			density := script.Float64()
			members := []int{script.Intn(n)}
			for v := 0; v < n; v++ {
				if script.Float64() < density {
					members = append(members, v)
				}
			}
			ref.install(members)
			for _, k := range ks {
				k.InstallFrontier(members)
			}
		}
		ref.step()
		for i, k := range ks {
			k.Step()
			if err := ref.matches(k); err != nil {
				return fmt.Errorf("round %d, mode %s: %w", ref.round, modeNames[reprModes[i]], err)
			}
		}
	}
	return nil
}

// checkDefinition runs both kinds on g with cases drawn from rng.
func checkDefinition(g *graph.Graph, rng *xrand.RNG) error {
	for _, kind := range []Kind{Cobra, Bips} {
		c := genDefCase(rng, g, kind)
		if err := roundsMatchDefinition(c); err != nil {
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
