package experiments

import (
	"fmt"
	"sort"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/xrand"
)

// E14Concentration reproduces the "w.h.p." form of the paper's theorems.
// Theorems 1.1/1.2 hold with probability 1 − O(1/n³), and the paper
// converts them to expectation bounds by the restart argument (if the
// graph is not covered by the claimed bound, restart from the current
// state). That argument needs the cover-time distribution to have a thin
// upper tail: quantiles close to the mean and a max/mean ratio that does
// not grow with n.
//
// The experiment runs many independent trials per graph and reports
// q50/q90/q99 and max, all normalised by the mean. The w.h.p. claim
// predicts these ratios stay O(1) (and in fact close to 1) as n grows.
func E14Concentration(p Params) (*sim.Table, error) {
	trials := pick(p, 60, 400)
	tb := sim.NewTable("E14: w.h.p. concentration — cover-time quantiles / mean",
		"graph", "n", "trials", "mean", "q50/mean", "q90/mean", "q99/mean", "max/mean")
	tb.Note = "thin upper tails justify the paper's restart argument (w.h.p. -> expectation)"
	gen := xrand.New(p.Seed ^ 0x14)

	var jobs []*graph.Graph
	for _, n := range pick(p, []int{128}, []int{256, 1024}) {
		rr, err := graph.RandomRegular(n, 3, gen)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, rr, graph.Complete(n), graph.Cycle(n))
	}
	for gi, g := range jobs {
		cfg := cfgFor(g)
		runner := sim.Runner{Seed: p.Seed ^ uint64(0x14000+gi), Workers: p.Workers}
		xs, err := runner.Run(trials, coverTrial(g, cfg))
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", g.Name(), err)
		}
		sort.Float64s(xs)
		mean := stats.Mean(xs)
		q := func(f float64) float64 {
			idx := int(f * float64(len(xs)-1))
			return xs[idx]
		}
		tb.AddRow(g.Name(), g.N(), trials, fmt.Sprintf("%.1f", mean),
			fmtRatio(q(0.50)/mean), fmtRatio(q(0.90)/mean),
			fmtRatio(q(0.99)/mean), fmtRatio(xs[len(xs)-1]/mean))
	}
	return tb, nil
}
