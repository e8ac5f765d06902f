package duality

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := SampleTable(g, Config{Branch: 2}, 1, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Branch: 0}, {Branch: 1, Rho: -0.1}, {Branch: 1, Rho: 1.1}} {
		if _, err := SampleTable(g, cfg, 1, xrand.New(1)); !errors.Is(err, ErrInput) {
			t.Fatalf("%+v accepted", cfg)
		}
	}
}

func TestSampleTableShape(t *testing.T) {
	g := graph.Cycle(7)
	tab, err := SampleTable(g, Config{Branch: 2}, 5, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if tab.T != 5 || len(tab.sel) != 5 {
		t.Fatalf("table T=%d len=%d", tab.T, len(tab.sel))
	}
	for t2 := 0; t2 < 5; t2++ {
		for u := 0; u < g.N(); u++ {
			row := tab.sel[t2][u]
			if len(row) != 2 {
				t.Fatalf("row length %d", len(row))
			}
			for _, w := range row {
				if !g.HasEdge(u, int(w)) {
					t.Fatalf("selection %d not a neighbour of %d", w, u)
				}
			}
		}
	}
}

func TestSampleTableFractionalRowLengths(t *testing.T) {
	g := graph.Complete(6)
	tab, err := SampleTable(g, Config{Branch: 1, Rho: 0.5}, 40, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ones, twos := 0, 0
	for t2 := range tab.sel {
		for u := range tab.sel[t2] {
			switch len(tab.sel[t2][u]) {
			case 1:
				ones++
			case 2:
				twos++
			default:
				t.Fatalf("row length %d", len(tab.sel[t2][u]))
			}
		}
	}
	if ones == 0 || twos == 0 {
		t.Fatalf("fractional rows degenerate: %d ones, %d twos", ones, twos)
	}
	frac := float64(twos) / float64(ones+twos)
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("two-selection fraction %.3f far from ρ=0.5", frac)
	}
}

func TestSampleTableLazyMaySelectSelf(t *testing.T) {
	g := graph.Cycle(5)
	tab, err := SampleTable(g, Config{Branch: 2, Lazy: true}, 20, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	self := false
	for t2 := range tab.sel {
		for u := range tab.sel[t2] {
			for _, w := range tab.sel[t2][u] {
				if int(w) == u {
					self = true
				} else if !g.HasEdge(u, int(w)) {
					t.Fatal("lazy selection neither self nor neighbour")
				}
			}
		}
	}
	if !self {
		t.Fatal("lazy table never selected self in 20 rounds (p < 2^-200)")
	}
}

func TestSampleTableErrors(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := SampleTable(g, Config{Branch: 0}, 3, xrand.New(1)); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := SampleTable(g, Config{Branch: 2}, -1, xrand.New(1)); err == nil {
		t.Fatal("negative T accepted")
	}
}

func TestReplayCOBRATrivialCases(t *testing.T) {
	g := graph.Path(4)
	tab, err := SampleTable(g, Config{Branch: 2}, 0, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	// T=0: hit iff target in starts.
	if !tab.ReplayCOBRA(g, []int{2}, 2) {
		t.Fatal("target in C0 not hit at T=0")
	}
	if tab.ReplayCOBRA(g, []int{0}, 3) {
		t.Fatal("distant target hit at T=0")
	}
	// BIPS with T=0: A_0={source}; meets C iff source in C.
	if !tab.ReplayBIPS(g, 2, []int{2, 0}) {
		t.Fatal("source in C not detected at T=0")
	}
	if tab.ReplayBIPS(g, 2, []int{0}) {
		t.Fatal("empty intersection detected at T=0")
	}
}

func TestCheckPathwiseInputValidation(t *testing.T) {
	g := graph.Cycle(6)
	rng := xrand.New(9)
	if _, _, err := CheckPathwise(g, Config{Branch: 2}, []int{0}, 9, 3, rng); !errors.Is(err, ErrInput) {
		t.Fatal("bad target accepted")
	}
	if _, _, err := CheckPathwise(g, Config{Branch: 2}, nil, 0, 3, rng); !errors.Is(err, ErrInput) {
		t.Fatal("empty starts accepted")
	}
	if _, _, err := CheckPathwise(g, Config{Branch: 2}, []int{-1}, 0, 3, rng); !errors.Is(err, ErrInput) {
		t.Fatal("bad start accepted")
	}
}

// The heart of Theorem 1.3: the pathwise equivalence holds on every
// sample, every graph, every variant, every horizon.
func TestPathwiseEquivalenceExhaustive(t *testing.T) {
	rng := xrand.New(11)
	graphs := []*graph.Graph{
		graph.Cycle(9), graph.Complete(8), graph.Petersen(),
		graph.Path(7), graph.Star(8), graph.Hypercube(3),
		graph.Lollipop(4, 3),
	}
	configs := []Config{
		{Branch: 1},
		{Branch: 2},
		{Branch: 3},
		{Branch: 1, Rho: 0.5},
		{Branch: 2, Lazy: true},
	}
	for _, g := range graphs {
		for _, cfg := range configs {
			for _, T := range []int{0, 1, 2, 5, 11} {
				for rep := 0; rep < 30; rep++ {
					starts := []int{rng.Intn(g.N())}
					if rep%3 == 0 { // multi-vertex start sets too
						starts = append(starts, rng.Intn(g.N()))
					}
					target := rng.Intn(g.N())
					hit, meet, err := CheckPathwise(g, cfg, starts, target, T, rng)
					if err != nil {
						t.Fatal(err)
					}
					if hit != meet {
						t.Fatalf("%s cfg=%+v T=%d starts=%v target=%d: COBRA hit=%v BIPS meet=%v",
							g.Name(), cfg, T, starts, target, hit, meet)
					}
				}
			}
		}
	}
}

// Property-based variant on random trees with random parameters.
func TestPathwiseEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, err := graph.RandomTree(6+int(seed%10), rng)
		if err != nil {
			return false
		}
		starts := []int{rng.Intn(g.N())}
		target := rng.Intn(g.N())
		T := rng.Intn(12)
		hit, meet, err := CheckPathwise(g, Config{Branch: 2}, starts, target, T, rng)
		return err == nil && hit == meet
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Two-sided Monte Carlo: the independent estimates of both sides of
// Theorem 1.3 agree within sampling error.
func TestTwoSidedMonteCarlo(t *testing.T) {
	g := graph.Cycle(10)
	cfg := Config{Branch: 2}
	const trials = 6000
	for _, T := range []int{2, 4, 6} {
		p1, err := HitProbability(g, cfg, []int{0}, 5, T, trials, xrand.New(uint64(100+T)))
		if err != nil {
			t.Fatal(err)
		}
		p2, err := EscapeProbability(g, cfg, 5, []int{0}, T, trials, xrand.New(uint64(200+T)))
		if err != nil {
			t.Fatal(err)
		}
		// Binomial std ~ sqrt(p(1-p)/trials) <= 0.0065; allow 5 sigma on
		// the difference of two independent estimates.
		if math.Abs(p1-p2) > 5*math.Sqrt(0.5/float64(trials)) {
			t.Fatalf("T=%d: COBRA side %.4f vs BIPS side %.4f", T, p1, p2)
		}
	}
}

func TestEstimatorErrors(t *testing.T) {
	g := graph.Cycle(5)
	rng := xrand.New(1)
	if _, err := HitProbability(g, Config{Branch: 2}, []int{0}, 1, 2, 0, rng); !errors.Is(err, ErrInput) {
		t.Fatal("trials=0 accepted")
	}
	if _, err := EscapeProbability(g, Config{Branch: 2}, 0, []int{1}, 2, 0, rng); !errors.Is(err, ErrInput) {
		t.Fatal("trials=0 accepted")
	}
}
