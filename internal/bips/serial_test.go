package bips

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestSerialRoundRejectsUnsupportedVariants(t *testing.T) {
	g := graph.Cycle(8)
	lazy, err := New(g, Config{Branch: 2, Lazy: true}, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lazy.SerialRound(); !errors.Is(err, ErrConfig) {
		t.Fatal("lazy serialisation accepted")
	}
	big, err := New(g, Config{Branch: 3}, 0, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.SerialRound(); !errors.Is(err, ErrConfig) {
		t.Fatal("b=3 serialisation accepted")
	}
}

func TestSerialStepInvariants(t *testing.T) {
	// Check every step on every round of full runs across families:
	//   - steps are in increasing vertex order;
	//   - non-source candidates have 1 <= d_A <= d-1 (paper: u ∈ N(A)\Bfix);
	//   - Y ∈ {d - d_A, -d_A} matching Infected;
	//   - ExpectedY matches the closed form and respects the 1/2 floor
	//     (non-source); source steps have Y >= 1.
	graphs := []*graph.Graph{
		graph.Complete(16), graph.Cycle(15), graph.Petersen(),
		graph.Lollipop(5, 5), graph.Star(12),
	}
	rng := xrand.New(3)
	for _, g := range graphs {
		p, err := New(g, core.DefaultConfig(), 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 400 && !p.Complete(); r++ {
			steps, err := p.SerialRound()
			if err != nil {
				t.Fatal(err)
			}
			if len(steps) == 0 && !p.Complete() {
				t.Fatalf("%s round %d: no steps before completion", g.Name(), r+1)
			}
			lastV := -1
			for _, st := range steps {
				if st.Vertex <= lastV {
					t.Fatalf("%s: steps out of order", g.Name())
				}
				lastV = st.Vertex
				if st.IsSource {
					if !st.Infected || st.Y < 1 {
						t.Fatalf("%s: source step Y=%d infected=%v", g.Name(), st.Y, st.Infected)
					}
					continue
				}
				if st.DegA < 1 || st.DegA > st.Deg-1 {
					t.Fatalf("%s: candidate with d_A=%d d=%d", g.Name(), st.DegA, st.Deg)
				}
				wantY := -st.DegA
				if st.Infected {
					wantY = st.Deg - st.DegA
				}
				if st.Y != wantY {
					t.Fatalf("%s: Y=%d want %d", g.Name(), st.Y, wantY)
				}
				frac := float64(st.DegA) / float64(st.Deg)
				wantE := float64(st.DegA) * (1 - frac)
				if math.Abs(st.ExpectedY-wantE) > 1e-12 {
					t.Fatalf("%s: ExpectedY=%v want %v", g.Name(), st.ExpectedY, wantE)
				}
				if st.ExpectedY < MartingaleFloor(core.DefaultConfig())-1e-12 {
					t.Fatalf("%s: ExpectedY=%v below floor 1/2 (eq. 18 violated)", g.Name(), st.ExpectedY)
				}
			}
		}
		if !p.Complete() {
			t.Fatalf("%s: serial run did not complete", g.Name())
		}
	}
}

func TestSerialFractionalExpectedY(t *testing.T) {
	// For b = 1+ρ: ExpectedY = ρ·d_A(1−d_A/d) >= ρ/2 (Section 6).
	g := graph.Complete(24)
	cfg := Config{Branch: 1, Rho: 0.5}
	p, err := New(g, cfg, 0, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	floor := MartingaleFloor(cfg)
	if floor != 0.25 {
		t.Fatalf("floor = %v", floor)
	}
	for r := 0; r < 500 && !p.Complete(); r++ {
		steps, err := p.SerialRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			if st.IsSource {
				continue
			}
			frac := float64(st.DegA) / float64(st.Deg)
			wantE := 0.5 * float64(st.DegA) * (1 - frac)
			if math.Abs(st.ExpectedY-wantE) > 1e-12 {
				t.Fatalf("fractional ExpectedY=%v want %v", st.ExpectedY, wantE)
			}
			if st.ExpectedY < floor-1e-12 {
				t.Fatalf("fractional ExpectedY=%v below ρ/2", st.ExpectedY)
			}
		}
	}
}

func TestSerialMatchesPlainDistribution(t *testing.T) {
	// The serialised round must reproduce the plain round's distribution.
	// Compare the mean |A_1| starting from a fixed A_0 via both engines.
	g := graph.Petersen()
	const trials = 4000
	meanAfterOne := func(serial bool, seed uint64) float64 {
		rng := xrand.New(seed)
		var sum float64
		for k := 0; k < trials; k++ {
			p, err := New(g, core.DefaultConfig(), 0, rng)
			if err != nil {
				t.Fatal(err)
			}
			if serial {
				if _, err := p.SerialRound(); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Step()
			}
			sum += float64(p.InfectedCount())
		}
		return sum / trials
	}
	ms := meanAfterOne(true, 7)
	mp := meanAfterOne(false, 8)
	if math.Abs(ms-mp) > 0.08 {
		t.Fatalf("serial mean %.4f vs plain mean %.4f differ beyond noise", ms, mp)
	}
}

func TestEmpiricalStepMeanMatchesExpectedY(t *testing.T) {
	// Fix an infected set, repeatedly serialise one round from it, and
	// check the empirical mean of each candidate's Y against ExpectedY.
	g := graph.Cycle(12)
	const trials = 20000
	sums := map[int]float64{}
	expect := map[int]float64{}
	counts := map[int]int{}
	rng := xrand.New(9)
	for k := 0; k < trials; k++ {
		p, err := New(g, core.DefaultConfig(), 0, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Advance two plain rounds deterministically re-seeded so A is the
		// same across trials? Instead: from A_0={0}, first round has fixed
		// A, so serialise round 1 only.
		steps, err := p.SerialRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			if st.IsSource {
				continue
			}
			sums[st.Vertex] += float64(st.Y)
			expect[st.Vertex] = st.ExpectedY
			counts[st.Vertex]++
		}
	}
	for v, s := range sums {
		mean := s / float64(counts[v])
		if math.Abs(mean-expect[v]) > 0.05 {
			t.Fatalf("vertex %d: empirical E(Y) %.4f vs theoretical %.4f", v, mean, expect[v])
		}
	}
}

func TestDegreeOfInfected(t *testing.T) {
	g := graph.Star(9)
	p, err := New(g, core.DefaultConfig(), 0, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// A_0 = {hub}: d(A) = 8.
	if d := p.DegreeOfInfected(); d != 8 {
		t.Fatalf("d(A_0) = %d, want 8", d)
	}
}

func TestTheoremOneBoundPositive(t *testing.T) {
	g := graph.Cycle(10)
	p, err := New(g, core.DefaultConfig(), 0, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	// m + dmax² ln n = 10 + 4·ln 10.
	want := 10 + 4*math.Log(10)
	if math.Abs(p.TheoremOneBound()-want) > 1e-9 {
		t.Fatalf("bound = %v want %v", p.TheoremOneBound(), want)
	}
}

func TestSerialRunCompletesAndSumsTrackDegree(t *testing.T) {
	// Equation (14): d(A_t) = d(v) + Σ Y_l over all steps so far.
	g := graph.Lollipop(6, 4)
	p, err := New(g, core.DefaultConfig(), 2, xrand.New(15))
	if err != nil {
		t.Fatal(err)
	}
	running := g.Degree(2)
	for r := 0; r < 2000 && !p.Complete(); r++ {
		steps, err := p.SerialRound()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range steps {
			running += st.Y
		}
		// Paper's identity holds per round: d(A_t) = d(Bfix) + d(Brand)
		// where the sum accumulates the random parts; verify directly.
		if got := p.DegreeOfInfected(); got != running {
			t.Fatalf("round %d: d(A_t)=%d but d(v)+ΣY=%d", r+1, got, running)
		}
	}
	if !p.Complete() {
		t.Fatal("did not complete")
	}
}
