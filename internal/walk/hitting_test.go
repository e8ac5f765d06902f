package walk

import (
	"math"
	"testing"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestHitTimesCompleteGraph(t *testing.T) {
	// K_n: h(u→v) = n−1 for u ≠ v (geometric with success 1/(n-1)).
	g := graph.Complete(8)
	h, err := HitTimes(g, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range h {
		want := 7.0
		if u == 3 {
			want = 0
		}
		if math.Abs(v-want) > 1e-8 {
			t.Fatalf("K8 h(%d→3) = %v, want %v", u, v, want)
		}
	}
}

func TestHitTimesCycle(t *testing.T) {
	// C_n: h(u→v) = k(n−k) where k is the hop distance.
	g := graph.Cycle(10)
	h, err := HitTimes(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		k := float64(u)
		if u > 5 {
			k = float64(10 - u)
		}
		want := k * (10 - k)
		if math.Abs(h[u]-want) > 1e-7 {
			t.Fatalf("C10 h(%d→0) = %v, want %v", u, h[u], want)
		}
	}
}

func TestHitTimesPathEnd(t *testing.T) {
	// Path 0..n-1 with a reflecting far end, target 0:
	// h(u→0) = u(2(n−1) − u) (gambler's ruin with reflection).
	g := graph.Path(7)
	h, err := HitTimes(g, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 7; u++ {
		want := float64(u * (2*6 - u))
		if math.Abs(h[u]-want) > 1e-7 {
			t.Fatalf("P7 h(%d→0) = %v, want %v", u, h[u], want)
		}
	}
}

func TestHitTimesValidation(t *testing.T) {
	g := graph.Cycle(5)
	if _, err := HitTimes(g, 9, 0); err == nil {
		t.Fatal("bad target accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if _, err := HitTimes(b.MustBuild("disc"), 0, 0); err == nil {
		t.Fatal("disconnected accepted")
	}
}

func TestHitTimesMatchSimulation(t *testing.T) {
	g := graph.Lollipop(4, 4)
	exact, err := HitTimes(g, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(13)
	const trials = 4000
	var sum, sumsq float64
	for k := 0; k < trials; k++ {
		steps, err := HitTime(g, 0, 7, false, rng)
		if err != nil {
			t.Fatal(err)
		}
		sum += float64(steps)
		sumsq += float64(steps) * float64(steps)
	}
	mean := sum / trials
	sd := math.Sqrt(sumsq/trials - mean*mean)
	if math.Abs(mean-exact[0]) > 5*sd/math.Sqrt(trials) {
		t.Fatalf("simulated h(0→7) %.2f vs exact %.2f", mean, exact[0])
	}
}
