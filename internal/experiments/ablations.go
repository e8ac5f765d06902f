package experiments

import (
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/xrand"
)

// AblationReplacement quantifies a design decision of this library: the
// paper's process samples b neighbours WITH replacement
// (so a vertex may waste a branch on a duplicate), which is what the
// library implements. This ablation compares against a without-
// replacement variant (b distinct neighbours when degree permits). On
// low-degree graphs the distinction matters most (a degree-2 vertex
// always informs both neighbours without replacement); the table reports
// the mean cover times and their ratio.
func AblationReplacement(p Params) (*sim.Table, error) {
	trials := pick(p, 10, 60)
	tb := sim.NewTable("A1: sampling ablation — with vs without replacement (b=2)",
		"graph", "with-repl", "without-repl", "ratio")
	tb.Note = "paper semantics = with replacement; without replacement can only be faster"
	gen := xrand.New(p.Seed ^ 0xa1)

	rr, err := graph.RandomRegular(pick(p, 64, 512), 3, gen)
	if err != nil {
		return nil, err
	}
	graphs := []*graph.Graph{
		graph.Cycle(pick(p, 64, 512)),
		rr,
		graph.Complete(pick(p, 64, 512)),
	}
	for gi, g := range graphs {
		runner := sim.Runner{Seed: p.Seed ^ uint64(0xa100+gi), Workers: p.Workers}
		with, err := runner.RunMeans(trials, coverTrial(g, core.Config{Branch: 2}))
		if err != nil {
			return nil, err
		}
		without, err := runner.RunMeans(trials, func(trial int, rng *xrand.RNG) (float64, error) {
			t, err := coverWithoutReplacement(g, 2, 0, rng)
			return float64(t), err
		})
		if err != nil {
			return nil, err
		}
		tb.AddRow(g.Name(), fmt.Sprintf("%.1f", with), fmt.Sprintf("%.1f", without),
			fmtRatio(with/without))
	}
	return tb, nil
}

// coverWithoutReplacement is the ablation-only variant: each active
// vertex informs min(b, deg) DISTINCT random neighbours per round.
func coverWithoutReplacement(g *graph.Graph, b, start int, rng *xrand.RNG) (int, error) {
	n := g.N()
	cur := bitset.New(n)
	next := bitset.New(n)
	covered := bitset.New(n)
	cur.Set(start)
	covered.Set(start)
	nCov := 1
	var active []int
	rounds := 0
	limit := 64 * n * 32
	for nCov < n {
		if rounds >= limit {
			return rounds, fmt.Errorf("ablation: round limit on %s", g.Name())
		}
		active = cur.Members(active[:0])
		next.Reset()
		for _, v := range active {
			deg := g.Degree(v)
			if deg <= b {
				for i := 0; i < deg; i++ {
					next.Set(g.Neighbor(v, i))
				}
				continue
			}
			// Floyd's algorithm for b distinct indices out of deg.
			first := rng.Intn(deg - 1)
			second := rng.Intn(deg)
			if second == first {
				second = deg - 1
			}
			next.Set(g.Neighbor(v, first))
			next.Set(g.Neighbor(v, second))
		}
		cur, next = next, cur
		rounds++
		cur.ForEach(func(w int) {
			if !covered.Contains(w) {
				covered.Set(w)
				nCov++
			}
		})
	}
	return rounds, nil
}

// AblationLazy quantifies the cost of laziness on graphs that do not need
// it: each selection stays put with probability 1/2, so the lazy process
// moves half as much and should cover roughly 2x slower — the price paid
// for bipartite safety when applied indiscriminately.
func AblationLazy(p Params) (*sim.Table, error) {
	trials := pick(p, 10, 60)
	tb := sim.NewTable("A2: lazy ablation — lazy vs plain b=2 on non-bipartite graphs",
		"graph", "plain", "lazy", "lazy/plain")
	tb.Note = "expected slowdown ~2x (half the selections stay put)"
	gen := xrand.New(p.Seed ^ 0xa2)

	rr, err := graph.RandomRegular(pick(p, 64, 512), 4, gen)
	if err != nil {
		return nil, err
	}
	graphs := []*graph.Graph{
		rr,
		graph.Complete(pick(p, 64, 512)),
		graph.DoubleCycle(pick(p, 32, 128)),
	}
	for gi, g := range graphs {
		runner := sim.Runner{Seed: p.Seed ^ uint64(0xa200+gi), Workers: p.Workers}
		plain, err := runner.RunMeans(trials, coverTrial(g, core.Config{Branch: 2}))
		if err != nil {
			return nil, err
		}
		lazy, err := runner.RunMeans(trials, coverTrial(g, core.Config{Branch: 2, Lazy: true}))
		if err != nil {
			return nil, err
		}
		tb.AddRow(g.Name(), fmt.Sprintf("%.1f", plain), fmt.Sprintf("%.1f", lazy),
			fmtRatio(lazy/plain))
	}
	return tb, nil
}
