package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	g := graph.Cycle(6)
	if _, err := New(g, DefaultConfig(), []int{0}, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Branch: 0},
		{Branch: -1},
		{Branch: 1, Rho: -0.1},
		{Branch: 1, Rho: 1.5},
	}
	for _, cfg := range bad {
		if _, err := New(g, cfg, []int{0}, xrand.New(1)); !errors.Is(err, ErrConfig) {
			t.Fatalf("%+v accepted", cfg)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	g := graph.Cycle(6)
	rng := xrand.New(1)
	if _, err := New(g, Config{Branch: 0}, []int{0}, rng); !errors.Is(err, ErrConfig) {
		t.Fatal("bad config accepted")
	}
	if _, err := New(g, DefaultConfig(), nil, rng); !errors.Is(err, ErrStart) {
		t.Fatal("empty start accepted")
	}
	if _, err := New(g, DefaultConfig(), []int{7}, rng); !errors.Is(err, ErrStart) {
		t.Fatal("out-of-range start accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	disc := b.MustBuild("disc")
	if _, err := New(disc, DefaultConfig(), []int{0}, rng); !errors.Is(err, ErrDisconnected) {
		t.Fatal("disconnected graph accepted")
	}
}

func TestSingleRoundSemantics(t *testing.T) {
	// On a star from the hub with b=2, after one round C_1 must contain
	// one or two leaves and nothing else; the hub leaves the active set.
	g := graph.Star(10)
	p, err := New(g, DefaultConfig(), []int{0}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	if p.Current().Contains(0) {
		t.Fatal("hub still active after pushing")
	}
	c := p.Current().Count()
	if c < 1 || c > 2 {
		t.Fatalf("|C_1| = %d, want 1 or 2", c)
	}
	if p.Round() != 1 {
		t.Fatalf("round = %d", p.Round())
	}
	if p.Transmissions() != 2 {
		t.Fatalf("transmissions = %d, want 2", p.Transmissions())
	}
}

func TestParticlesStayOnNeighbors(t *testing.T) {
	g := graph.Cycle(9)
	p, err := New(g, DefaultConfig(), []int{0}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	prev := p.Current().Clone()
	for r := 0; r < 50; r++ {
		p.Step()
		// Every active vertex must be adjacent to some previously active
		// vertex.
		ok := true
		p.Current().ForEach(func(v int) {
			adj := false
			for _, u := range g.Neighbors(v) {
				if prev.Contains(int(u)) {
					adj = true
					break
				}
			}
			if !adj {
				ok = false
			}
		})
		if !ok {
			t.Fatalf("round %d: particle teleported", r+1)
		}
		prev = p.Current().Clone()
	}
}

func TestCoverMonotoneAndComplete(t *testing.T) {
	g := graph.Complete(32)
	p, err := New(g, DefaultConfig(), []int{0}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	last := p.CoveredCount()
	for !p.Complete() {
		p.Step()
		if p.CoveredCount() < last {
			t.Fatal("covered set shrank")
		}
		last = p.CoveredCount()
		if p.Round() > 1000 {
			t.Fatal("K32 not covered in 1000 rounds")
		}
	}
	if !p.Covered().Full() {
		t.Fatal("Complete true but covered not full")
	}
}

func TestCoverTimeCompleteGraphLogarithmic(t *testing.T) {
	// Paper intro (i): K_n covers in O(log n) rounds w.h.p. With n = 256
	// the typical cover time is ~log2(n)+O(1) ≈ 10–14; assert generous
	// bracket [4, 60] across trials.
	g := graph.Complete(256)
	rng := xrand.New(11)
	for trial := 0; trial < 10; trial++ {
		tm, err := CoverTime(g, DefaultConfig(), trial, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tm < 4 || tm > 60 {
			t.Fatalf("K256 cover time %d outside [4,60]", tm)
		}
	}
}

func TestCoverRespectsLowerBound(t *testing.T) {
	// cover >= max(log2 n, Diam) always.
	cases := []*graph.Graph{graph.Complete(64), graph.Cycle(20), graph.Path(15)}
	rng := xrand.New(13)
	for _, g := range cases {
		lb := g.CoverTimeLowerBound()
		for trial := 0; trial < 5; trial++ {
			tm, err := CoverTime(g, DefaultConfig(), 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			if tm < lb {
				t.Fatalf("%s: cover %d below deterministic lower bound %d", g.Name(), tm, lb)
			}
		}
	}
}

func TestBranchOneIsRandomWalk(t *testing.T) {
	// With b=1 exactly one vertex is active each round.
	g := graph.Cycle(12)
	p, err := New(g, Config{Branch: 1}, []int{0}, xrand.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 100; r++ {
		p.Step()
		if c := p.Current().Count(); c != 1 {
			t.Fatalf("b=1 active set size %d at round %d", c, r)
		}
	}
}

func TestHitTime(t *testing.T) {
	g := graph.Path(10)
	rng := xrand.New(19)
	tm, err := HitTime(g, DefaultConfig(), 0, 9, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tm < 9 { // must travel the diameter
		t.Fatalf("hit time %d below distance 9", tm)
	}
	// Hitting the start vertex itself is round 0.
	tm, err = HitTime(g, DefaultConfig(), 3, 3, rng)
	if err != nil || tm != 0 {
		t.Fatalf("self hit = %d, %v", tm, err)
	}
	if _, err := HitTime(g, DefaultConfig(), 0, 99, rng); !errors.Is(err, ErrStart) {
		t.Fatal("bad target accepted")
	}
}

func TestHitTimeFromSet(t *testing.T) {
	g := graph.Cycle(16)
	rng := xrand.New(23)
	// Starting from all vertices, every target is hit at round 0.
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	tm, err := HitTimeFromSet(g, DefaultConfig(), all, 5, rng)
	if err != nil || tm != 0 {
		t.Fatalf("full-start hit = %d, %v", tm, err)
	}
}

func TestRoundLimit(t *testing.T) {
	// Non-lazy b=1 walk on bipartite K_{1,3} alternates sides; covering
	// still happens, so use MaxRounds=1 on a big graph to force the error.
	g := graph.Cycle(64)
	cfg := DefaultConfig()
	cfg.MaxRounds = 1
	rounds, err := CoverTime(g, cfg, 0, xrand.New(29))
	if !errors.Is(err, ErrRoundLimit) || rounds != 1 {
		t.Fatalf("rounds = %d, err = %v, want 1 and ErrRoundLimit", rounds, err)
	}
	if want := "cobra: round limit exceeded before cover: 1 rounds on cycle-64"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// RunUntilHit stops at the cap with the round it reached and an error
// naming the cap, the rounds and the graph.
func TestRunUntilHitRoundLimit(t *testing.T) {
	g := graph.Cycle(64)
	p, err := New(g, Config{Branch: 2, MaxRounds: 3}, []int{0}, xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := p.RunUntilHit(32) // 32 hops away: unreachable in 3 rounds
	if !errors.Is(err, ErrRoundLimit) || rounds != 3 {
		t.Fatalf("rounds = %d, err = %v, want 3 and ErrRoundLimit", rounds, err)
	}
	if want := "cobra: round limit exceeded before cover: 3 rounds on cycle-64"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// A capped trace stops at MaxRounds with no error: CoverRound stays -1
// and each series holds C_0 and one entry per round run.
func TestTraceRoundLimit(t *testing.T) {
	tr, err := Trace(graph.Cycle(64), Config{Branch: 2, MaxRounds: 3}, 0, xrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CoverRound != -1 || len(tr.ActiveSize) != 4 || len(tr.CoveredSize) != 4 {
		t.Fatalf("cover round %d, %d active and %d covered entries; want -1, 4 and 4",
			tr.CoverRound, len(tr.ActiveSize), len(tr.CoveredSize))
	}
}

func TestLazyCOBRACoversBipartite(t *testing.T) {
	// Lazy variant must cover bipartite graphs without parity issues.
	g := graph.CompleteBipartite(8, 8)
	cfg := Config{Branch: 2, Lazy: true}
	rng := xrand.New(31)
	tm, err := CoverTime(g, cfg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 || tm > 200 {
		t.Fatalf("lazy cover time %d implausible", tm)
	}
}

func TestFractionalBranching(t *testing.T) {
	// ρ = 1 with Branch 1 equals b = 2 in distribution; spot check the
	// active set can exceed 1 (unlike pure b=1).
	g := graph.Complete(64)
	p, err := New(g, Config{Branch: 1, Rho: 1}, []int{0}, xrand.New(37))
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for r := 0; r < 20; r++ {
		p.Step()
		if p.Current().Count() > 1 {
			grew = true
			break
		}
	}
	if !grew {
		t.Fatal("ρ=1 never branched")
	}
}

func TestFractionalSlowerThanFull(t *testing.T) {
	// ρ = 0.25 should cover K_n slower on average than ρ = 1.
	g := graph.Complete(128)
	mean := func(rho float64, seed uint64) float64 {
		rng := xrand.New(seed)
		var sum float64
		for k := 0; k < 30; k++ {
			tm, err := CoverTime(g, Config{Branch: 1, Rho: rho}, 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(tm)
		}
		return sum / 30
	}
	slow := mean(0.25, 41)
	fast := mean(1.0, 43)
	if slow <= fast {
		t.Fatalf("ρ=0.25 mean %.1f not slower than ρ=1 mean %.1f", slow, fast)
	}
}

func TestTrace(t *testing.T) {
	g := graph.Complete(64)
	tr, err := Trace(g, DefaultConfig(), 0, xrand.New(47))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CoverRound < 0 {
		t.Fatal("trace did not cover")
	}
	if len(tr.ActiveSize) != tr.CoverRound+1 || len(tr.CoveredSize) != tr.CoverRound+1 {
		t.Fatalf("trace lengths %d/%d vs cover round %d",
			len(tr.ActiveSize), len(tr.CoveredSize), tr.CoverRound)
	}
	if tr.ActiveSize[0] != 1 || tr.CoveredSize[0] != 1 {
		t.Fatal("trace initial sizes wrong")
	}
	for i := 1; i < len(tr.CoveredSize); i++ {
		if tr.CoveredSize[i] < tr.CoveredSize[i-1] {
			t.Fatal("covered size not monotone in trace")
		}
	}
	if last := tr.CoveredSize[len(tr.CoveredSize)-1]; last != g.N() {
		t.Fatalf("final covered %d != n", last)
	}
}

// Property: the informed set after a step is exactly the set of selected
// targets — every active vertex contributes at least one target, so
// |C_{t+1}| >= 1 and |C_{t+1}| <= b_max * |C_t|.
func TestActiveSetBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g := graph.Cycle(10 + int(seed%13))
		p, err := New(g, DefaultConfig(), []int{0}, xrand.New(seed))
		if err != nil {
			return false
		}
		_ = rng
		prev := 1
		for r := 0; r < 30; r++ {
			p.Step()
			c := p.Current().Count()
			if c < 1 || c > 2*prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed, same trajectory (serial engine determinism).
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Hypercube(4)
		cfg := Config{Branch: 2, Lazy: true}
		t1, err1 := CoverTime(g, cfg, 0, xrand.New(seed))
		t2, err2 := CoverTime(g, cfg, 0, xrand.New(seed))
		return err1 == nil && err2 == nil && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCoverTimeExpanderVsCycleShape(t *testing.T) {
	// Sanity on the bound shapes: at n = 128 an expander covers in
	// O(log n) rounds while the cycle needs Ω(n/2) (diameter), so the
	// cycle must be at least several times slower.
	rng := xrand.New(59)
	exp, err := graph.RandomRegular(128, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	meanCover := func(g *graph.Graph) float64 {
		var sum float64
		for k := 0; k < 10; k++ {
			tm, err := CoverTime(g, DefaultConfig(), 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(tm)
		}
		return sum / 10
	}
	ce := meanCover(exp)
	cc := meanCover(graph.Cycle(128))
	if cc < 3*ce {
		t.Fatalf("cycle %.1f not ≫ expander %.1f", cc, ce)
	}
	if ce > 12*math.Log2(128) {
		t.Fatalf("expander cover %.1f far above O(log n)", ce)
	}
}

func TestCoalescedAccounting(t *testing.T) {
	// Identity: Coalesced = Transmissions − Σ_{t>=1} |C_t|, and >= 0.
	g := graph.Complete(48)
	p, err := New(g, DefaultConfig(), []int{0}, xrand.New(81))
	if err != nil {
		t.Fatal(err)
	}
	var sumActive int64
	for !p.Complete() {
		p.Step()
		sumActive += int64(p.Current().Count())
	}
	if p.Coalesced() < 0 {
		t.Fatal("negative coalescence count")
	}
	if got, want := p.Coalesced(), p.Transmissions()-sumActive; got != want {
		t.Fatalf("Coalesced = %d, want transmissions−Σ|C_t| = %d", got, want)
	}
	// On K_48 with a growing active set, collisions must actually occur.
	if p.Coalesced() == 0 {
		t.Fatal("no coalescence ever observed on a complete graph (suspicious)")
	}
}

func TestCoalescedSingleWalkIsZero(t *testing.T) {
	// b=1: one particle, never a collision.
	g := graph.Cycle(24)
	p, err := New(g, Config{Branch: 1}, []int{0}, xrand.New(83))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 200; r++ {
		p.Step()
	}
	if p.Coalesced() != 0 {
		t.Fatalf("b=1 recorded %d coalescences", p.Coalesced())
	}
}
