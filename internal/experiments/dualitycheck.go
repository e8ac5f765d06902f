package experiments

import (
	"fmt"
	"math"

	"github.com/repro/cobra/internal/duality"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/xrand"
)

// E4Duality regenerates Theorem 1.3. Two checks per (graph, variant, T):
//
//  1. Pathwise: sample N shared selection tables, replay COBRA forward
//     and BIPS backward on each, and count agreements of the exact
//     equivalence "target hit within T" ⇔ "C ∩ A_T ≠ ∅". Theorem 1.3's
//     proof predicts N/N agreement.
//  2. Monte-Carlo: estimate both sides of the probability identity with
//     independent samples and report the difference in units of the
//     pooled standard error (|z| should look like a standard normal).
func E4Duality(p Params) (*sim.Table, error) {
	pathTrials := pick(p, 200, 3000)
	mcTrials := pick(p, 1500, 20000)
	tb := sim.NewTable("E4: Theorem 1.3 — duality P(Hit(v)>T | C) = P(C cap A_T = 0 | v)",
		"graph", "variant", "T", "pathwise-agree", "P-cobra", "P-bips", "|z|")
	tb.Note = "pathwise-agree must be N/N (exact theorem); |z| ~ N(0,1) for independent estimates"

	type caseSpec struct {
		g       *graph.Graph
		cfg     duality.Config
		variant string
		T       int
		starts  []int
		target  int
	}
	var cases []caseSpec
	graphs := []*graph.Graph{
		graph.Cycle(10), graph.Complete(12), graph.Petersen(), graph.Grid(4, 4),
	}
	variants := []struct {
		name string
		cfg  duality.Config
	}{
		{"b=2", duality.Config{Branch: 2}},
		{"b=1.5", duality.Config{Branch: 1, Rho: 0.5}},
		{"b=2 lazy", duality.Config{Branch: 2, Lazy: true}},
	}
	for _, g := range graphs {
		for _, v := range variants {
			for _, T := range pick(p, []int{3}, []int{2, 4, 8}) {
				cases = append(cases, caseSpec{
					g: g, cfg: v.cfg, variant: v.name, T: T,
					starts: []int{0}, target: g.N() / 2,
				})
			}
		}
	}

	for i, cs := range cases {
		// Pathwise agreement.
		rng := xrand.NewStream(p.Seed^0xe4, uint64(i))
		agree := 0
		for k := 0; k < pathTrials; k++ {
			hit, meet, err := duality.CheckPathwise(cs.g, cs.cfg, cs.starts, cs.target, cs.T, rng)
			if err != nil {
				return nil, fmt.Errorf("E4 %s: %w", cs.g.Name(), err)
			}
			if hit == meet {
				agree++
			}
		}
		// Independent two-sided Monte Carlo.
		p1, err := duality.HitProbability(cs.g, cs.cfg, cs.starts, cs.target, cs.T, mcTrials,
			xrand.NewStream(p.Seed^0xe4a, uint64(i)))
		if err != nil {
			return nil, err
		}
		p2, err := duality.EscapeProbability(cs.g, cs.cfg, cs.target, cs.starts, cs.T, mcTrials,
			xrand.NewStream(p.Seed^0xe4b, uint64(i)))
		if err != nil {
			return nil, err
		}
		// float64(·) rounds each product: no multiply-add (see package stats).
		se := math.Sqrt((float64(p1*(1-p1)) + float64(p2*(1-p2))) / float64(mcTrials))
		z := 0.0
		if se > 0 {
			z = math.Abs(p1-p2) / se
		}
		tb.AddRow(cs.g.Name(), cs.variant, cs.T,
			fmt.Sprintf("%d/%d", agree, pathTrials),
			fmt.Sprintf("%.4f", p1), fmt.Sprintf("%.4f", p2), fmt.Sprintf("%.2f", z))
	}
	return tb, nil
}
