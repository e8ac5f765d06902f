package engine

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Sparse rounds are the reference for dense rounds: they build the next
// frontier member by member from the current one, straight from the
// definition, while dense rounds scan and fold whole bitset words. For
// one seed, ForceSparse, ForceDense and Adaptive kernels must agree every
// round on the frontier set, the covered set, FrontierCount,
// FrontierVolume, Sent and Coalesced.
// The case generator is hand-rolled: testing/quick supplies the case seed
// and everything else derives from it through xrand, so a logged case
// seed replays its failure.

// reprCase is one sparse-against-dense comparison.
type reprCase struct {
	g     *graph.Graph
	kind  Kind
	par   Params
	start int // C_0 = {start} for COBRA, the source for BIPS
	seed  uint64
}

var reprModes = [...]Mode{ForceSparse, ForceDense, Adaptive}

// randomConnectedGraph draws a connected graph on n ∈ [2, 300] vertices:
// a random recursive tree plus random extra edges at a drawn density, so
// trees and near-complete graphs both occur, as do n < 64 and word counts
// whose last word is partial.
func randomConnectedGraph(rng *xrand.RNG) *graph.Graph {
	n := 2 + rng.Intn(299)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(rng.Intn(v), v)
	}
	for extra := rng.Intn(n * (1 + rng.Intn(8))); extra > 0; extra-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild(fmt.Sprintf("random(%d)", n))
}

// randomReprParams draws b ∈ {1, 2, 3}, ρ ∈ {0, 0.5} and laziness.
func randomReprParams(rng *xrand.RNG) Params {
	par := Params{Branch: 1 + rng.Intn(3), Lazy: rng.Bool()}
	if rng.Bool() {
		par.Rho = 0.5
	}
	return par
}

// reprsAgree steps one kernel per mode for up to rounds rounds, stopping
// once the sparse reference completes, and reports the first round on
// which another mode disagrees with it.
func reprsAgree(c reprCase, rounds int) error {
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
	ref := ks[0]
	for r := 1; r <= rounds && !ref.Complete(); r++ {
		for _, k := range ks {
			k.Step()
		}
		for i, k := range ks[1:] {
			if err := sameRound(ref, k); err != nil {
				return fmt.Errorf("round %d, mode %d against sparse: %w", r, reprModes[i+1], err)
			}
		}
	}
	return nil
}

// sameRound compares every observable of two kernels after a round.
func sameRound(a, b *Kernel) error {
	switch {
	case !a.Frontier().Equal(b.Frontier()):
		return errors.New("frontier sets differ")
	case a.FrontierCount() != b.FrontierCount():
		return fmt.Errorf("FrontierCount %d != %d", a.FrontierCount(), b.FrontierCount())
	case a.FrontierVolume() != b.FrontierVolume():
		return fmt.Errorf("FrontierVolume %d != %d", a.FrontierVolume(), b.FrontierVolume())
	case a.Sent() != b.Sent() || a.Coalesced() != b.Coalesced():
		return fmt.Errorf("Sent/Coalesced %d/%d != %d/%d", a.Sent(), a.Coalesced(), b.Sent(), b.Coalesced())
	case a.kind == Cobra && !a.Covered().Equal(b.Covered()):
		return errors.New("covered sets differ")
	case a.CoveredCount() != b.CoveredCount():
		return fmt.Errorf("CoveredCount %d != %d", a.CoveredCount(), b.CoveredCount())
	}
	return nil
}

func TestSparseDenseAgreeProperty(t *testing.T) {
	f := func(caseSeed uint64) bool {
		rng := xrand.New(caseSeed)
		g := randomConnectedGraph(rng)
		par := randomReprParams(rng)
		start, seed := rng.Intn(g.N()), rng.Uint64()
		for _, kind := range []Kind{Cobra, Bips} {
			if err := reprsAgree(reprCase{g, kind, par, start, seed}, 200); err != nil {
				t.Logf("caseSeed %d: %s kind %d %+v start %d: %v", caseSeed, g.Name(), kind, par, start, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Fixed word layouts the generator may miss (fixedLayouts).
func TestSparseDenseAgreeFixedGraphs(t *testing.T) {
	pars := []Params{
		{Branch: 2},
		{Branch: 1, Rho: 0.5},
		{Branch: 2, Lazy: true},
		{Branch: 3, Rho: 0.5, Lazy: true},
	}
	for _, g := range fixedLayouts(t) {
		for _, kind := range []Kind{Cobra, Bips} {
			for _, par := range pars {
				if err := reprsAgree(reprCase{g, kind, par, 0, 77}, 2000); err != nil {
					t.Fatalf("%s kind %d %+v: %v", g.Name(), kind, par, err)
				}
			}
		}
	}
}

// bipsTrajectory runs a BIPS kernel for a fixed number of rounds (BIPS
// need not terminate) and returns the per-round frontier sizes + volumes.
func bipsTrajectory(k *Kernel, rounds int) (sizes, vols []int) {
	for r := 0; r < rounds; r++ {
		k.Step()
		sizes = append(sizes, k.FrontierCount())
		vols = append(vols, k.FrontierVolume())
	}
	return sizes, vols
}

func sameBipsTrajectory(t *testing.T, label string, a, b *Kernel) {
	t.Helper()
	const rounds = 120
	as, av := bipsTrajectory(a, rounds)
	bs, bv := bipsTrajectory(b, rounds)
	for i := range as {
		if as[i] != bs[i] || av[i] != bv[i] {
			t.Fatalf("%s: round %d differs: |A| %d/%d vol %d/%d",
				label, i+1, as[i], bs[i], av[i], bv[i])
		}
	}
	if !a.Frontier().Equal(b.Frontier()) {
		t.Fatalf("%s: final infected sets differ", label)
	}
}

// The bookkeeping dense rounds fuse into their word passes (frontier
// count, volume, covered fold) must agree with a from-scratch recount
// every round, for both kinds.
func TestTiledBookkeepingInvariants(t *testing.T) {
	g, err := graph.BarabasiAlbert(300, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	par := Params{Branch: 2, Mode: ForceDense}
	for _, kind := range []Kind{Cobra, Bips} {
		var k *Kernel
		if kind == Cobra {
			k, err = NewCobra(g, par, []int{0, 5}, 11)
		} else {
			k, err = NewBips(g, par, 5, 11)
		}
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 60 && !k.Complete(); r++ {
			k.Step()
			if got, want := k.FrontierCount(), k.Frontier().Count(); got != want {
				t.Fatalf("kind %d round %d: FrontierCount %d != popcount %d", kind, r+1, got, want)
			}
			vol := 0
			k.Frontier().ForEach(func(v int) { vol += g.Degree(v) })
			if got := k.FrontierVolume(); got != vol {
				t.Fatalf("kind %d round %d: FrontierVolume %d != recount %d", kind, r+1, got, vol)
			}
			if kind == Cobra {
				if got, want := k.CoveredCount(), k.Covered().Count(); got != want {
					t.Fatalf("round %d: CoveredCount %d != popcount %d", r+1, got, want)
				}
			}
		}
	}
}

// Workspace reuse must stay invisible to dense trajectories. Each trial
// abandons a dense COBRA kernel mid-run, then builds a BIPS kernel
// through the same workspace, whose rounds swap the workspace's two
// frontier sets, then a COBRA kernel: acquire must hand it the all-zero
// set as next, or its dense fold would pick up stale bits
// (zero-after-fold).
func TestTiledWorkspaceReuse(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Hypercube(11),
		graph.Grid(30, 30),
	}
	ws := NewWorkspace()
	for _, g := range graphs {
		for trial := 0; trial < 3; trial++ {
			seed := uint64(9000*trial + g.N())

			dirty, err := NewCobraWith(ws, g, Params{Branch: 2, Mode: ForceDense}, []int{0}, seed)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 5; r++ {
				dirty.Step()
			}

			freshB, err := NewBips(g, Params{Branch: 2}, 0, seed^0x7e57)
			if err != nil {
				t.Fatal(err)
			}
			reusedB, err := NewBipsWith(ws, g, Params{Branch: 2}, 0, seed^0x7e57)
			if err != nil {
				t.Fatal(err)
			}
			sameBipsTrajectory(t, "dense bips "+g.Name(), freshB, reusedB)

			fresh, err := NewCobra(g, Params{Branch: 2}, []int{0}, seed)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := NewCobraWith(ws, g, Params{Branch: 2}, []int{0}, seed)
			if err != nil {
				t.Fatal(err)
			}
			sameTrajectory(t, "dense cobra "+g.Name(), fresh, reused, 1<<20)
		}
	}
}

// Steady-state rounds must be allocation-free under workspace reuse:
// wide dense rounds of both kinds, wide sparse COBRA rounds, sparse BIPS
// rounds in both candidate orders (vertex order from n/64 candidates,
// list order below), and Adaptive BIPS rounds on the complement of a
// near-full frontier.
func TestTiledRoundsZeroAlloc(t *testing.T) {
	g := graph.Hypercube(14) // n = 16384, 256 bitset words
	all := make([]int, g.N())
	var nearFull []int // all but every 32nd vertex: vol(V∖A) = 7168 ≤ 3n/4
	for i := range all {
		all[i] = i
		if i%32 != 0 {
			nearFull = append(nearFull, i)
		}
	}
	narrow := []int{0, 1, 2} // at most 43 candidates: list order
	cases := []struct {
		name       string
		kind       Kind
		mode       Mode
		install    []int // reinstalled before every measured round; nil runs free
		vertexScan bool  // BIPS sparse: expect the vertex-order scan
	}{
		{"dense cobra", Cobra, ForceDense, nil, false},
		{"dense bips", Bips, ForceDense, nil, false},
		{"sparse cobra", Cobra, ForceSparse, nil, false},
		{"sparse bips vertex order", Bips, ForceSparse, nil, true},
		{"sparse bips list order", Bips, ForceSparse, narrow, false},
		{"adaptive bips complement", Bips, Adaptive, nearFull, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ws := NewWorkspace()
			par := Params{Branch: 2, Mode: c.mode}
			var k *Kernel
			var err error
			if c.kind == Cobra {
				k, err = NewCobraWith(ws, g, par, []int{0}, 5)
			} else {
				k, err = NewBipsWith(ws, g, par, 0, 5)
			}
			if err != nil {
				t.Fatal(err)
			}
			// Grow both member slices to n (a round builds one while it
			// reads the other), then settle into wide rounds.
			for i := 0; i < 2; i++ {
				k.InstallFrontier(all)
				k.Step()
			}
			for r := 0; r < 10; r++ {
				k.Step()
			}
			if c.install == nil && k.FrontierCount() < g.N()/3 {
				t.Fatalf("warm-up left frontier at %d of %d", k.FrontierCount(), g.N())
			}
			round := func() {
				if c.install != nil {
					k.InstallFrontier(c.install)
				}
				k.Step()
			}
			if c.mode == Adaptive {
				k.InstallFrontier(c.install)
				if !k.useDense() || !k.useComplement() {
					t.Fatalf("frontier of volume %d: not a complement round", k.FrontierVolume())
				}
			}
			round()
			if c.kind == Bips && c.mode == ForceSparse {
				if scan := len(k.candList) == k.next.WordCount(); scan != c.vertexScan {
					t.Fatalf("%d candidates of %d words: vertex-order scan %v, want %v",
						len(k.candList), k.next.WordCount(), scan, c.vertexScan)
				}
			}
			if avg := testing.AllocsPerRun(50, round); avg != 0 {
				t.Errorf("%v allocs per round, want 0", avg)
			}
		})
	}
}

// BenchmarkEngineCrossover measures one sparse round against one dense
// round at controlled frontier fractions; the crossover constants
// (DefaultDenseDiv, the BIPS volume rule) cite this sweep. It runs on two
// 2^18-vertex graphs: the 8-regular circulant C_n(1..4), whose frontier
// of every frac-th vertex is evenly spread, and a random 3-regular graph,
// the paper-sweep expander, on which the same members are scattered over
// the adjacency arrays. A BIPS frontier of every frac-th vertex has volume
// 8n/frac on the circulant and 3n/frac on the random graph. The frontier
// is reinstalled outside the timer every iteration so each measured round
// sees exactly the fraction under test.
//
// The bips/complement and bips/scan rows time a wide BIPS round from a
// near-full frontier whose complement V∖A has volume n/4, n/2, 3n/4, n
// and 3n/2 (the vertices i with i mod 4d < q, on a d-regular graph, for
// q = 1, 2, 3, 4 and 6): the complement round (bipsComplement, which
// Adaptive runs up to vol(V∖A) = 3n/4; here at every volume) against the
// ForceDense scan. complementQuarters cites these rows.
func BenchmarkEngineCrossover(b *testing.B) {
	const n = 1 << 18
	rreg, err := graph.RandomRegular(n, 3, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	members := func(frac int) []int {
		m := make([]int, 0, n/frac)
		for i := 0; i < n; i += frac {
			m = append(m, i)
		}
		return m
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"circulant", graph.Chord(n, 4)}, {"rreg3", rreg}} {
		for _, kind := range []Kind{Cobra, Bips} {
			kindName := "cobra"
			if kind == Bips {
				kindName = "bips"
			}
			for _, mode := range []Mode{ForceSparse, ForceDense} {
				repr := "sparse"
				if mode == ForceDense {
					repr = "dense"
				}
				for _, frac := range []int{512, 256, 128, 96, 64, 48, 32, 16, 12, 8, 6, 4, 3, 2} {
					b.Run(fmt.Sprintf("%s/%s/%s/frac=1_%d", gc.name, kindName, repr, frac), func(b *testing.B) {
						ws := NewWorkspace()
						par := Params{Branch: 2, Mode: mode}
						var k *Kernel
						var err error
						if kind == Cobra {
							k, err = NewCobraWith(ws, gc.g, par, []int{0}, 5)
						} else {
							k, err = NewBipsWith(ws, gc.g, par, 0, 5)
						}
						if err != nil {
							b.Fatal(err)
						}
						mem := members(frac)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							b.StopTimer()
							k.InstallFrontier(mem)
							b.StartTimer()
							k.Step()
						}
					})
				}
			}
		}
		d := gc.g.Degree(0) // both graphs are regular
		for _, u := range []struct {
			name string
			q    int // vol(V∖A) = q·n/4
		}{{"n_4", 1}, {"n_2", 2}, {"3n_4", 3}, {"n", 4}, {"3n_2", 6}} {
			var mem []int
			for i := 0; i < n; i++ {
				if i%(4*d) >= u.q {
					mem = append(mem, i)
				}
			}
			for _, repr := range []string{"complement", "scan"} {
				b.Run(fmt.Sprintf("%s/bips/%s/uninfected_vol=%s", gc.name, repr, u.name), func(b *testing.B) {
					k, err := NewBipsWith(NewWorkspace(), gc.g, Params{Branch: 2, Mode: ForceDense}, 0, 5)
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						k.InstallFrontier(mem)
						b.StartTimer()
						if repr == "scan" {
							k.Step()
						} else { // the complement round at every volume, past 3n/4 too
							k.bipsComplement()
							k.round++
						}
					}
				})
			}
		}
	}
}
