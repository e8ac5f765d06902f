package exact

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/repro/cobra/internal/duality"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// exact checks the shared variant type with its own function: the
// simulators' branching check narrowed to b = 1, 1+ρ, 2 and 3, at every
// entry point.
func TestConfigValidate(t *testing.T) {
	g := graph.Path(3)
	good := []Config{{Branch: 2}, {Branch: 1}, {Branch: 1, Rho: 0.5}, {Branch: 2, Lazy: true}}
	for _, c := range good {
		if err := validate(c); err != nil {
			t.Fatalf("%+v rejected: %v", c, err)
		}
	}
	bad := []Config{{Branch: 0}, {Branch: 4}, {Branch: 1, Rho: -1}, {Branch: 2, Rho: 0.5}}
	for _, c := range bad {
		if err := validate(c); !errors.Is(err, ErrInput) {
			t.Fatalf("%+v accepted", c)
		}
		if _, err := CobraHitProbability(g, c, []int{0}, 2, 1); !errors.Is(err, ErrInput) {
			t.Fatalf("CobraHitProbability accepted %+v", c)
		}
		if _, err := ExpectedInfectionTime(g, c, 0, 0); !errors.Is(err, ErrInput) {
			t.Fatalf("ExpectedInfectionTime accepted %+v", c)
		}
	}
}

func TestCobraHitHandComputed(t *testing.T) {
	// Path 0-1-2, start {0}, target 2, b=2, T=1: round 1 sends both picks
	// from 0 to vertex 1 (its only neighbour); 2 unreachable. P(Hit>1)=1.
	g := graph.Path(3)
	p, err := CobraHitProbability(g, Config{Branch: 2}, []int{0}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-15 {
		t.Fatalf("path T=1: %v", p)
	}
	// T=2: C_1 = {1}; vertex 1 picks 2 of {0,2}: P(2 not picked) = 1/4.
	p, err = CobraHitProbability(g, Config{Branch: 2}, []int{0}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("path T=2: %v, want 0.25", p)
	}
	// Triangle, b=1 (random walk), start {0}, target 1, T=1: picks one of
	// two neighbours: P(miss) = 1/2.
	tri := graph.Complete(3)
	p, err = CobraHitProbability(tri, Config{Branch: 1}, []int{0}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("triangle b=1: %v", p)
	}
	// Target already in starts: probability 0 at any T.
	p, err = CobraHitProbability(tri, Config{Branch: 2}, []int{1}, 1, 5)
	if err != nil || p != 0 {
		t.Fatalf("self start: %v, %v", p, err)
	}
}

func TestBipsMeetHandComputed(t *testing.T) {
	// Path 0-1-2, source 0, C={1}, T=1: vertex 1 picks two of {0,2};
	// infected iff it picks 0 at least once: 1-(1/2)^2 = 3/4.
	// So P(C ∩ A_1 = ∅) = 1/4.
	g := graph.Path(3)
	p, err := BipsMeetComplementProbability(g, Config{Branch: 2}, 0, []int{1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.25) > 1e-12 {
		t.Fatalf("path bips T=1: %v, want 0.25", p)
	}
	// C containing the source is met at every T >= 0.
	p, err = BipsMeetComplementProbability(g, Config{Branch: 2}, 0, []int{0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("source in C: %v", p)
	}
}

// The centrepiece: Theorem 1.3 as an exact identity between two numbers
// computed by unrelated recursions (COBRA forward chain with absorption
// vs BIPS product-Bernoulli chain).
func TestDualityExactIdentity(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(5), graph.Cycle(6), graph.Complete(5),
		graph.Star(6), graph.Petersen(),
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
			for _, T := range []int{0, 1, 2, 3, 5, 8} {
				starts := []int{0}
				target := g.N() - 1
				lhs, err := CobraHitProbability(g, cfg, starts, target, T)
				if err != nil {
					t.Fatal(err)
				}
				rhs, err := BipsMeetComplementProbability(g, cfg, target, starts, T)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(lhs-rhs) > 1e-10 {
					t.Fatalf("%s cfg=%+v T=%d: COBRA %.15f vs BIPS %.15f (Theorem 1.3 exact identity broken)",
						g.Name(), cfg, T, lhs, rhs)
				}
			}
		}
	}
}

// Multi-vertex start sets too.
func TestDualityExactIdentityMultiStart(t *testing.T) {
	g := graph.Cycle(7)
	cfg := Config{Branch: 2}
	for _, T := range []int{1, 3, 6} {
		lhs, err := CobraHitProbability(g, cfg, []int{0, 3}, 5, T)
		if err != nil {
			t.Fatal(err)
		}
		rhs, err := BipsMeetComplementProbability(g, cfg, 5, []int{0, 3}, T)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Fatalf("T=%d: %.15f vs %.15f", T, lhs, rhs)
		}
	}
}

// The Monte-Carlo estimators must converge to the exact values.
func TestSimulationConvergesToExact(t *testing.T) {
	g := graph.Cycle(8)
	cfg := Config{Branch: 2}
	dcfg := duality.Config{Branch: 2}
	const T = 4
	exactP, err := CobraHitProbability(g, cfg, []int{0}, 4, T)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40000
	est, err := duality.HitProbability(g, dcfg, []int{0}, 4, T, trials, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	se := math.Sqrt(exactP * (1 - exactP) / trials)
	if math.Abs(est-exactP) > 5*se+1e-9 {
		t.Fatalf("simulation %.5f vs exact %.5f (se %.5f)", est, exactP, se)
	}
	estB, err := duality.EscapeProbability(g, dcfg, 4, []int{0}, T, trials, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(estB-exactP) > 5*se+1e-9 {
		t.Fatalf("BIPS simulation %.5f vs exact %.5f", estB, exactP)
	}
}

func TestExpectedInfectionTime(t *testing.T) {
	// K_2 with source 0: vertex 1 infected iff it picks 0 — its only
	// neighbour — so infection completes in exactly 1 round.
	g := graph.Complete(2)
	e, err := ExpectedInfectionTime(g, Config{Branch: 2}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-10 {
		t.Fatalf("K2: %v", e)
	}
	// Triangle, b=1: each non-source picks one of its two neighbours; it
	// is infected in a given round with p depending on current set.
	// Just sanity-bound: 1 <= E <= 10, and simulation agrees.
	tri := graph.Complete(3)
	e, err = ExpectedInfectionTime(tri, Config{Branch: 2}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e < 1 || e > 10 {
		t.Fatalf("triangle E[infec] = %v", e)
	}
}

func TestExpectedInfectionTimeMatchesSimulation(t *testing.T) {
	g := graph.Cycle(6)
	exactE, err := ExpectedInfectionTime(g, Config{Branch: 2}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate.
	rng := xrand.New(23)
	const trials = 20000
	var sum, sumsq float64
	for k := 0; k < trials; k++ {
		tm, err := simInfection(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(tm)
		sumsq += float64(tm) * float64(tm)
	}
	mean := sum / trials
	sd := math.Sqrt(sumsq/trials - mean*mean)
	if math.Abs(mean-exactE) > 5*sd/math.Sqrt(trials) {
		t.Fatalf("simulated %.4f vs exact %.4f (sd %.3f)", mean, exactE, sd)
	}
}

// simInfection is a local minimal BIPS simulation (avoids importing the
// bips package just for this test's convergence check).
func simInfection(g *graph.Graph, rng *xrand.RNG) (int, error) {
	n := g.N()
	cur := make([]bool, n)
	next := make([]bool, n)
	cur[0] = true
	count := 1
	rounds := 0
	for count < n {
		if rounds > 1<<20 {
			return 0, errors.New("no convergence")
		}
		count = 0
		for u := 0; u < n; u++ {
			if u == 0 {
				next[u] = true
				count++
				continue
			}
			deg := g.Degree(u)
			hit := cur[g.Neighbor(u, rng.Intn(deg))] || cur[g.Neighbor(u, rng.Intn(deg))]
			next[u] = hit
			if hit {
				count++
			}
		}
		cur, next = next, cur
		rounds++
	}
	return rounds, nil
}

func TestExpectedHitTime(t *testing.T) {
	// K_2, b=1: from 0, hit 1 after exactly 1 round.
	g := graph.Complete(2)
	e, err := ExpectedHitTime(g, Config{Branch: 1}, []int{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1) > 1e-10 {
		t.Fatalf("K2 hit: %v", e)
	}
	// Triangle, b=1 random walk: E[hit of a fixed other vertex] = 2
	// (each step hits the target w.p. 1/2: geometric mean 2).
	tri := graph.Complete(3)
	e, err = ExpectedHitTime(tri, Config{Branch: 1}, []int{0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-2) > 1e-9 {
		t.Fatalf("triangle b=1 hit: %v, want 2", e)
	}
	// b=2 must hit faster than b=1 on the cycle.
	c := graph.Cycle(7)
	e1, err := ExpectedHitTime(c, Config{Branch: 1}, []int{0}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ExpectedHitTime(c, Config{Branch: 2}, []int{0}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2 >= e1 {
		t.Fatalf("b=2 hit %v not faster than b=1 %v", e2, e1)
	}
}

func TestInputValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := CobraHitProbability(g, Config{Branch: 2}, nil, 0, 1); !errors.Is(err, ErrInput) {
		t.Fatal("empty starts accepted")
	}
	if _, err := CobraHitProbability(g, Config{Branch: 2}, []int{0}, 9, 1); !errors.Is(err, ErrInput) {
		t.Fatal("bad target accepted")
	}
	if _, err := CobraHitProbability(g, Config{Branch: 2}, []int{0}, 1, -1); !errors.Is(err, ErrInput) {
		t.Fatal("negative T accepted")
	}
	if _, err := BipsMeetComplementProbability(g, Config{Branch: 2}, 9, []int{0}, 1); !errors.Is(err, ErrInput) {
		t.Fatal("bad source accepted")
	}
	if _, err := BipsMeetComplementProbability(g, Config{Branch: 2}, 0, nil, 1); !errors.Is(err, ErrInput) {
		t.Fatal("empty C accepted")
	}
	big := graph.Cycle(MaxN + 2)
	if _, err := CobraHitProbability(big, Config{Branch: 2}, []int{0}, 1, 1); !errors.Is(err, ErrInput) {
		t.Fatal("oversized graph accepted")
	}
}

func TestBranchThreeFasterThanTwo(t *testing.T) {
	// Exact hit-time ordering: b=3 dominates b=2 dominates b=1.
	g := graph.Cycle(8)
	e1, err := ExpectedHitTime(g, Config{Branch: 1}, []int{0}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ExpectedHitTime(g, Config{Branch: 2}, []int{0}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := ExpectedHitTime(g, Config{Branch: 3}, []int{0}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(e3 < e2 && e2 < e1) {
		t.Fatalf("expected hit times not ordered: b3=%v b2=%v b1=%v", e3, e2, e1)
	}
}

// Every entry point returns the same bits on every call: each sum runs
// in a fixed order, never in Go's randomised map order.
func TestSameBitsEveryCall(t *testing.T) {
	cases := []struct {
		g   *graph.Graph
		cfg Config
	}{
		{graph.Petersen(), Config{Branch: 2}},
		{graph.Cycle(9), Config{Branch: 1, Rho: 0.5}},
		{graph.Star(8), Config{Branch: 2, Lazy: true}},
	}
	for _, c := range cases {
		target := c.g.N() - 1
		calls := map[string]func() (float64, error){
			"ExpectedHitTime": func() (float64, error) {
				return ExpectedHitTime(c.g, c.cfg, []int{0}, target, 0)
			},
			"ExpectedInfectionTime": func() (float64, error) {
				return ExpectedInfectionTime(c.g, c.cfg, 0, 0)
			},
		}
		for _, T := range []int{4, 8} {
			calls[fmt.Sprintf("CobraHitProbability T=%d", T)] = func() (float64, error) {
				return CobraHitProbability(c.g, c.cfg, []int{0}, target, T)
			}
			calls[fmt.Sprintf("BipsMeetComplementProbability T=%d", T)] = func() (float64, error) {
				return BipsMeetComplementProbability(c.g, c.cfg, target, []int{0}, T)
			}
		}
		for name, call := range calls {
			first, err := call()
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < 20; i++ {
				if v, _ := call(); math.Float64bits(v) != math.Float64bits(first) {
					t.Fatalf("%s %+v %s: call %d gave %.17g, call 0 %.17g", c.g.Name(), c.cfg, name, i, v, first)
				}
			}
		}
	}
}
