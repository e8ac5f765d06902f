package spectral

import (
	"math"
	"testing"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

const tol = 1e-6

func almost(t *testing.T, what string, got, want, eps float64) {
	t.Helper()
	if math.Abs(got-want) > eps {
		t.Fatalf("%s: got %.9f want %.9f (eps %.1e)", what, got, want, eps)
	}
}

// Closed-form spectra used as test vectors:
//   - K_n: walk eigenvalues {1, -1/(n-1)}, so λ = 1/(n-1).
//   - C_n: cos(2πk/n); λ = max(|cos(2π/n)|, |cos(π·floor(n/2)·2/n)|);
//     for even n bipartite gives λ = 1.
//   - Q_d: eigenvalues 1 - 2k/d; bipartite, λ = 1.
//   - K_{a,b}: bipartite, λ = 1.
//   - Petersen: adjacency eigenvalues {3, 1, -2} → walk {1, 1/3, -2/3}; λ = 2/3.
//   - Star K_{1,n-1}: bipartite, λ = 1 (walk spectrum {1, 0, -1}).
func TestSecondEigenvalueClosedForms(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want float64
	}{
		{"K5", graph.Complete(5), 0.25},
		{"K10", graph.Complete(10), 1.0 / 9},
		// Odd cycle C_n: walk eigenvalues cos(2πk/n); the largest modulus
		// among non-trivial ones is |cos(π(n−1)/n)| = cos(π/n).
		{"C5", graph.Cycle(5), math.Cos(math.Pi / 5)},
		{"C6-bipartite", graph.Cycle(6), 1},
		{"C7", graph.Cycle(7), math.Cos(math.Pi / 7)},
		{"Q3-bipartite", graph.Hypercube(3), 1},
		{"K34-bipartite", graph.CompleteBipartite(3, 4), 1},
		{"petersen", graph.Petersen(), 2.0 / 3},
		{"star-bipartite", graph.Star(8), 1},
	}
	for _, tc := range cases {
		got, err := SecondEigenvalue(tc.g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		almost(t, tc.name, got, tc.want, 1e-5)
	}
}

func TestSecondEigenvalueLazy(t *testing.T) {
	// Lazy spectrum is (1+λ_i)/2. For Q_d the non-unit extremes are
	// 1-2/d and -1, so the lazy λ is max((1+(1-2/d))/2, 0) = 1 - 1/d.
	for _, d := range []int{3, 4, 5} {
		got, err := SecondEigenvalueLazy(graph.Hypercube(d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "lazy hypercube", got, 1-1.0/float64(d), 1e-5)
	}
	// K_n lazy: eigenvalues {1, (1-1/(n-1))/2}.
	got, err := SecondEigenvalueLazy(graph.Complete(6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "lazy K6", got, (1+(-1.0/5))/2, 1e-5)
}

func TestGap(t *testing.T) {
	gap, err := Gap(graph.Complete(11), Options{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "K11 gap", gap, 1-0.1, 1e-5)
}

func TestSingleVertex(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Build("K1")
	if err != nil {
		t.Fatal(err)
	}
	lam, err := SecondEigenvalue(g, Options{})
	if err != nil || lam != 0 {
		t.Fatalf("K1: lam=%v err=%v", lam, err)
	}
}

func TestIrregularGraphGap(t *testing.T) {
	// Lollipop has tiny conductance; the gap must be strictly positive but
	// small, and below the cycle's gap at comparable size.
	lol := graph.Lollipop(8, 8)
	gl, err := Gap(lol, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gl <= 0 || gl > 0.5 {
		t.Fatalf("lollipop gap %.6f implausible", gl)
	}
}

func TestRandomRegularGapIsLarge(t *testing.T) {
	// Random cubic graphs are expanders w.h.p.: λ close to the Ramanujan
	// bound 2*sqrt(2)/3 ≈ 0.9428. Assert the gap is bounded away from 0.
	rng := xrand.New(31)
	g, err := graph.RandomRegular(200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	gap, err := Gap(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gap < 0.02 {
		t.Fatalf("random cubic gap %.5f suspiciously small", gap)
	}
	if gap > 0.4 {
		t.Fatalf("random cubic gap %.5f suspiciously large", gap)
	}
}

func TestDoubleCycleGapScalesInverseSquare(t *testing.T) {
	// C_n(1,2) has gap Θ(1/n²): check the ratio between n and 2n runs is
	// roughly 4.
	g1, err := Gap(graph.DoubleCycle(32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Gap(graph.DoubleCycle(64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := g1 / g2
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("gap ratio %.2f not ~4 (g1=%.6g g2=%.6g)", ratio, g1, g2)
	}
}

func TestConductanceExactKnown(t *testing.T) {
	// K_4: the minimising cut is the singleton: cut 3, vol 3 → 1? All cuts:
	// singleton: 3/3 = 1; pair: cut 4, vol 6 → 2/3. So ϕ = 2/3.
	almost(t, "K4", ConductanceExact(graph.Complete(4)), 2.0/3, 1e-12)
	// C_6: halving cut: 2 cut edges, vol 6 → 1/3. ϕ = 1/3.
	almost(t, "C6", ConductanceExact(graph.Cycle(6)), 1.0/3, 1e-12)
	// C_8: 2/8 = 1/4.
	almost(t, "C8", ConductanceExact(graph.Cycle(8)), 0.25, 1e-12)
	// Path P_4: cut the middle edge: 1 cut, vol 3 → 1/3.
	almost(t, "P4", ConductanceExact(graph.Path(4)), 1.0/3, 1e-12)
}

func TestConductanceExactPanicsOnLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n > 24")
		}
	}()
	ConductanceExact(graph.Cycle(30))
}

func TestConductanceSweepUpperBoundsExact(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(12), graph.Complete(8), graph.Hypercube(4),
		graph.Path(10), graph.Lollipop(6, 6),
	} {
		exact := ConductanceExact(g)
		sweep, err := ConductanceSweep(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if sweep < exact-tol {
			t.Fatalf("%s: sweep %.6f below exact %.6f", g.Name(), sweep, exact)
		}
		// The sweep should not be wildly loose on these structured
		// families: within a factor 3 or sqrt-Cheeger, whichever is looser.
		if sweep > 3*exact+0.3 {
			t.Fatalf("%s: sweep %.6f too loose vs exact %.6f", g.Name(), sweep, exact)
		}
	}
}

func TestCheegerInequalityHolds(t *testing.T) {
	// 1−λ_lazy >= ϕ²/2 with ϕ from the exact computation (using lazy
	// spectrum since plain λ is 1 on bipartite families).
	for _, g := range []*graph.Graph{
		graph.Cycle(10), graph.Hypercube(4), graph.Complete(8), graph.Path(12),
	} {
		lam, err := SecondEigenvalueLazy(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		phi := ConductanceExact(g)
		// Lazy halves conductance effects: gap_lazy = (1-λ_plain)/2 at the
		// low end; the valid inequality is 1-λ_lazy >= ϕ²/4 (half of ϕ²/2).
		if 1-lam < phi*phi/4-tol {
			t.Fatalf("%s: Cheeger violated: gap %.6f < ϕ²/4 = %.6f", g.Name(), 1-lam, phi*phi/4)
		}
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	g := graph.Petersen()
	a, _ := SecondEigenvalue(g, Options{})
	b, _ := SecondEigenvalue(g, Options{})
	if a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestHypercubeGapMatchesTheory(t *testing.T) {
	// Paper example: hypercube eigenvalue gap (lazy, since Q_d is
	// bipartite) is Θ(1/log n) = Θ(1/d). Verify 1-λ_lazy = 1/d exactly.
	for d := 2; d <= 7; d++ {
		lam, err := SecondEigenvalueLazy(graph.Hypercube(d), Options{})
		if err != nil {
			t.Fatal(err)
		}
		almost(t, "hypercube lazy gap", 1-lam, 1.0/float64(d), 1e-5)
	}
}

func BenchmarkSecondEigenvalueHypercube10(b *testing.B) {
	g := graph.Hypercube(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SecondEigenvalueLazy(g, Options{Tol: 1e-8}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCirculantClosedForms(t *testing.T) {
	// Circulant C_n(1,2): walk eigenvalues (cos(2πk/n)+cos(4πk/n))/2.
	// Compute the expected second eigenvalue from the closed form and
	// compare against both the power-iteration and dense paths.
	n := 16
	want := 0.0
	for k := 1; k < n; k++ {
		th := 2 * math.Pi * float64(k) / float64(n)
		lam := (math.Cos(th) + math.Cos(2*th)) / 2
		if a := math.Abs(lam); a > want {
			want = a
		}
	}
	g := graph.DoubleCycle(n)
	got, err := SecondEigenvalue(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "C16(1,2) power", got, want, 1e-6)
	exact, err := SecondEigenvalueExact(g)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "C16(1,2) dense", exact, want, 1e-9)

	// Chord C_n(1..3): eigenvalues (Σ_{j=1..3} cos(2πjk/n))/3.
	c := graph.Chord(15, 3)
	want = 0
	for k := 1; k < 15; k++ {
		th := 2 * math.Pi * float64(k) / 15
		lam := (math.Cos(th) + math.Cos(2*th) + math.Cos(3*th)) / 3
		if a := math.Abs(lam); a > want {
			want = a
		}
	}
	got, err = SecondEigenvalue(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "C15(1..3)", got, want, 1e-6)
}
