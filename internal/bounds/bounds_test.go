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
	// The paper's running example: on Q_d this paper's bound is below
	// [4]'s. Check with the exact Q_d parameters (r = d, lazy gap = 1/d).
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
		if !(ours < podc) {
			t.Fatalf("d=%d: bounds not ordered: ours %.3g, [4] %.3g", d, ours, podc)
		}
	}
}
