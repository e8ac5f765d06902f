package walk

import (
	"math"
	"testing"

	"github.com/repro/cobra/internal/graph"
)

func TestStationarySumsToOne(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Star(9), graph.Cycle(8), graph.Lollipop(5, 5)} {
		pi := Stationary(g)
		var sum float64
		for _, v := range pi {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("%s: stationary sums to %v", g.Name(), sum)
		}
	}
	// Star: hub mass = (n-1)/2m = 8/16 = 0.5.
	pi := Stationary(graph.Star(9))
	if math.Abs(pi[0]-0.5) > 1e-12 {
		t.Fatalf("star hub mass %v", pi[0])
	}
}

func TestEvolvePreservesMassAndFixesStationary(t *testing.T) {
	g := graph.Lollipop(6, 4)
	pi := Stationary(g)
	out := make([]float64, g.N())
	EvolveDistribution(g, pi, out, false)
	for v := range pi {
		if math.Abs(out[v]-pi[v]) > 1e-12 {
			t.Fatalf("stationary not fixed at %d: %v vs %v", v, out[v], pi[v])
		}
	}
	p := make([]float64, g.N())
	p[3] = 1
	EvolveDistribution(g, p, out, true)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("mass not preserved: %v", sum)
	}
}

func TestTotalVariation(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	if tv := TotalVariation(p, q); math.Abs(tv-1) > 1e-12 {
		t.Fatalf("TV %v", tv)
	}
	if tv := TotalVariation(p, p); tv != 0 {
		t.Fatalf("TV self %v", tv)
	}
}

func TestMixingTimeCompleteGraphFast(t *testing.T) {
	tm, err := MixingTime(graph.Complete(32), 0, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 12 {
		t.Fatalf("K32 lazy mixing time %d too slow", tm)
	}
}

func TestMixingTimeCycleSlow(t *testing.T) {
	fast, err := MixingTime(graph.Complete(24), 0, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := MixingTime(graph.Cycle(24), 0, 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow <= 2*fast {
		t.Fatalf("cycle mixing %d not ≫ complete %d", slow, fast)
	}
}

func TestMixingTimeValidation(t *testing.T) {
	g := graph.Cycle(6)
	if _, err := MixingTime(g, -1, 0.25, 0); err == nil {
		t.Fatal("bad src accepted")
	}
	if _, err := MixingTime(g, 0, 0, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := MixingTime(g, 0, 1.5, 0); err == nil {
		t.Fatal("eps>1 accepted")
	}
	if _, err := MixingTime(g, 0, 1e-9, 3); err == nil {
		t.Fatal("tiny step cap not reported")
	}
}
