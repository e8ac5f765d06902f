package bounds

import (
	"errors"
	"math"
	"testing"

	"github.com/repro/cobra/internal/graph"
)

func TestGeneral(t *testing.T) {
	g := graph.Cycle(10)
	want := 10 + 4*math.Log(10)
	if got := General(g); math.Abs(got-want) > 1e-12 {
		t.Fatalf("General = %v want %v", got, want)
	}
}

func TestRegular(t *testing.T) {
	got, err := Regular(100, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := (3/0.5 + 9) * math.Log(100)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Regular = %v want %v", got, want)
	}
	if _, err := Regular(100, 3, 0); !errors.Is(err, ErrInput) {
		t.Fatal("gap=0 accepted")
	}
	if _, err := Regular(100, 3, 1.5); !errors.Is(err, ErrInput) {
		t.Fatal("gap>1 accepted")
	}
}

func TestPriorBoundsOrderingOnHypercube(t *testing.T) {
	// The paper's running example: on Q_d the three bounds are ordered
	// this paper < [4] < [8]. Check with the exact Q_d parameters
	// (r = d, lazy gap = 1/d, ϕ = Θ(1/d) — use 1/d).
	for d := 4; d <= 12; d += 2 {
		n := 1 << uint(d)
		gap := 1 / float64(d)
		ours, err := Regular(n, d, gap)
		if err != nil {
			t.Fatal(err)
		}
		podc, err := PODC16(n, gap)
		if err != nil {
			t.Fatal(err)
		}
		spaa, err := SPAA16(n, d, 1/float64(d))
		if err != nil {
			t.Fatal(err)
		}
		if !(ours < podc && podc < spaa) {
			t.Fatalf("d=%d: bounds not ordered: ours %.3g, [4] %.3g, [8] %.3g", d, ours, podc, spaa)
		}
	}
}

func TestHypercubeTriple(t *testing.T) {
	c3, c4, c8 := HypercubeTriple(10)
	ln := 10 * math.Ln2
	if math.Abs(c3-math.Pow(ln, 3)) > 1e-9 || math.Abs(c4-math.Pow(ln, 4)) > 1e-9 || math.Abs(c8-math.Pow(ln, 8)) > 1e-6 {
		t.Fatalf("triple = %v %v %v", c3, c4, c8)
	}
	if !(c3 < c4 && c4 < c8) {
		t.Fatal("triple not increasing")
	}
}

func TestLowerMatchesGraphMethod(t *testing.T) {
	g := graph.Path(50)
	if Lower(g) != g.CoverTimeLowerBound() {
		t.Fatal("Lower disagrees with graph method")
	}
}

func TestGapPremise(t *testing.T) {
	// Random cubic graphs (gap ≈ 0.06) satisfy the premise at n = 1024
	// for moderate C; the double cycle (gap Θ(1/n²)) does not.
	if !GapPremise(1024, 0.06, 0.5) {
		t.Fatal("expander premise rejected")
	}
	if GapPremise(1024, 1.0/(1024.0*1024.0), 0.5) {
		t.Fatal("double-cycle-like gap accepted")
	}
}

func TestFractionalScale(t *testing.T) {
	s, err := FractionalScale(0.5)
	if err != nil || s != 4 {
		t.Fatalf("FractionalScale(0.5) = %v, %v", s, err)
	}
	if _, err := FractionalScale(0); !errors.Is(err, ErrInput) {
		t.Fatal("rho=0 accepted")
	}
	if _, err := FractionalScale(2); !errors.Is(err, ErrInput) {
		t.Fatal("rho=2 accepted")
	}
	if _, err := FractionalScale(math.NaN()); !errors.Is(err, ErrInput) {
		t.Fatal("rho=NaN accepted")
	}
}

func TestSPAA16Validation(t *testing.T) {
	if _, err := SPAA16(100, 3, 0); !errors.Is(err, ErrInput) {
		t.Fatal("phi=0 accepted")
	}
	v, err := SPAA16(100, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := 16.0 / 0.25 * math.Log(100) * math.Log(100)
	if math.Abs(v-want) > 1e-9 {
		t.Fatalf("SPAA16 = %v want %v", v, want)
	}
}
