package bips

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestConfigValidate(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := New(g, core.DefaultConfig(), 0, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{{Branch: 0}, {Branch: 2, Rho: -1}, {Branch: 2, Rho: 2}} {
		if _, err := New(g, cfg, 0, xrand.New(1)); !errors.Is(err, ErrConfig) {
			t.Fatalf("%+v accepted", cfg)
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	g := graph.Cycle(5)
	rng := xrand.New(1)
	if _, err := New(g, Config{Branch: 0}, 0, rng); !errors.Is(err, ErrConfig) {
		t.Fatal("bad config accepted")
	}
	if _, err := New(g, core.DefaultConfig(), -1, rng); !errors.Is(err, ErrSource) {
		t.Fatal("negative source accepted")
	}
	if _, err := New(g, core.DefaultConfig(), 5, rng); !errors.Is(err, ErrSource) {
		t.Fatal("out-of-range source accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := New(b.MustBuild("disc"), core.DefaultConfig(), 0, rng); !errors.Is(err, ErrDisconnected) {
		t.Fatal("disconnected accepted")
	}
}

func TestSourceAlwaysInfected(t *testing.T) {
	g := graph.Cycle(11)
	p, err := New(g, core.DefaultConfig(), 4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != 4 {
		t.Fatalf("Source = %d", p.Source())
	}
	for r := 0; r < 200; r++ {
		p.Step()
		if !p.Infected().Contains(4) {
			t.Fatalf("round %d: source lost infection", r+1)
		}
	}
}

func TestInfectedCountMatchesSet(t *testing.T) {
	g := graph.Hypercube(4)
	p, err := New(g, core.DefaultConfig(), 0, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 60; r++ {
		p.Step()
		if p.InfectedCount() != p.Infected().Count() {
			t.Fatalf("round %d: cached count %d != %d", r+1, p.InfectedCount(), p.Infected().Count())
		}
	}
}

func TestInfectionSpreadOnlyFromNeighbors(t *testing.T) {
	// After one round from a single source, only the source and its
	// neighbours can be infected.
	g := graph.Cycle(20)
	p, err := New(g, core.DefaultConfig(), 10, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	p.Infected().ForEach(func(u int) {
		if u != 10 && !g.HasEdge(u, 10) {
			t.Fatalf("vertex %d infected without an infected neighbour", u)
		}
	})
}

func TestInfectionTimeCompleteGraph(t *testing.T) {
	// On K_n infection spreads like a logistic map: completion in
	// O(log n) rounds.
	g := graph.Complete(256)
	rng := xrand.New(11)
	for k := 0; k < 5; k++ {
		tm, err := InfectionTime(g, core.DefaultConfig(), k, rng)
		if err != nil {
			t.Fatal(err)
		}
		if tm < 4 || tm > 80 {
			t.Fatalf("K256 infection time %d outside [4,80]", tm)
		}
	}
}

func TestInfectionCanRecede(t *testing.T) {
	// Unlike COBRA's cover set, |A_t| is not monotone. On a long cycle
	// this happens readily; detect at least one shrink across a run.
	g := graph.Cycle(64)
	p, err := New(g, core.DefaultConfig(), 0, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	shrank := false
	prev := 1
	for r := 0; r < 2000 && !p.Complete(); r++ {
		p.Step()
		if p.InfectedCount() < prev {
			shrank = true
			break
		}
		prev = p.InfectedCount()
	}
	if !shrank {
		t.Fatal("infected set never shrank on a cycle (suspicious)")
	}
}

func TestRoundLimitError(t *testing.T) {
	g := graph.Cycle(32)
	cfg := core.DefaultConfig()
	cfg.MaxRounds = 1
	rounds, err := InfectionTime(g, cfg, 0, xrand.New(17))
	if !errors.Is(err, ErrRoundLimit) || rounds != 1 {
		t.Fatalf("rounds = %d, err = %v", rounds, err)
	}
	if want := "bips: round limit exceeded before full infection: 1 rounds on cycle-32"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

func TestLazyBIPSOnBipartite(t *testing.T) {
	g := graph.CompleteBipartite(6, 6)
	cfg := Config{Branch: 2, Lazy: true}
	tm, err := InfectionTime(g, cfg, 0, xrand.New(19))
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 || tm > 500 {
		t.Fatalf("lazy bipartite infection time %d", tm)
	}
}

func TestFractionalBranchingSlower(t *testing.T) {
	g := graph.Complete(128)
	mean := func(cfg Config, seed uint64) float64 {
		rng := xrand.New(seed)
		var sum float64
		for k := 0; k < 20; k++ {
			tm, err := InfectionTime(g, cfg, 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(tm)
		}
		return sum / 20
	}
	slow := mean(Config{Branch: 1, Rho: 0.25}, 23)
	fast := mean(Config{Branch: 2}, 29)
	if slow <= fast {
		t.Fatalf("ρ=0.25 mean %.1f not slower than b=2 mean %.1f", slow, fast)
	}
}

// A capped trace stops at MaxRounds with no error: CompleteRound stays
// -1 and each series holds round 0 and one entry per round run.
func TestTraceRoundLimit(t *testing.T) {
	tr, err := Trace(graph.Cycle(64), Config{Branch: 2, MaxRounds: 3}, 0, xrand.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CompleteRound != -1 || len(tr.InfectedSize) != 4 || len(tr.CandidateSize) != 4 {
		t.Fatalf("complete round %d, %d infected and %d candidate entries; want -1, 4 and 4",
			tr.CompleteRound, len(tr.InfectedSize), len(tr.CandidateSize))
	}
}

func TestTrace(t *testing.T) {
	g := graph.Complete(64)
	tr, err := Trace(g, core.DefaultConfig(), 0, xrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	if tr.CompleteRound < 0 {
		t.Fatal("trace did not complete")
	}
	if len(tr.InfectedSize) != tr.CompleteRound+1 {
		t.Fatalf("trace length %d vs round %d", len(tr.InfectedSize), tr.CompleteRound)
	}
	if tr.InfectedSize[0] != 1 {
		t.Fatal("initial infected size != 1")
	}
	if last := tr.InfectedSize[len(tr.InfectedSize)-1]; last != g.N() {
		t.Fatalf("final infected %d != n", last)
	}
	// Candidate sizes: never zero during active rounds (paper: C_t ≠ ∅).
	for i := 1; i < len(tr.CandidateSize); i++ {
		if tr.CandidateSize[i] < 1 {
			t.Fatalf("round %d: empty candidate set", i)
		}
	}
}

// Property: determinism — same seed, same infection time.
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.Petersen()
		a, err1 := InfectionTime(g, core.DefaultConfig(), 0, xrand.New(seed))
		b, err2 := InfectionTime(g, core.DefaultConfig(), 0, xrand.New(seed))
		return err1 == nil && err2 == nil && a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the candidate set is never empty before completion (proved in
// Section 3: if v ∈ Bfix, a vertex on a shortest path to V\A is in C).
func TestCandidateNonEmptyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		g, err := graph.RandomTree(24, rng)
		if err != nil {
			return false
		}
		p, err := New(g, core.DefaultConfig(), 0, rng)
		if err != nil {
			return false
		}
		for r := 0; r < 300 && !p.Complete(); r++ {
			if p.CandidateCount() < 1 {
				return false
			}
			p.Step()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
