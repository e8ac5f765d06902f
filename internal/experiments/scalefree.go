package experiments

import (
	"fmt"
	"math"
	"strconv"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/bounds"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/xrand"
)

// Scale-free and small-world scenarios (ROADMAP item): the Barabási–
// Albert family stresses the dmax² term of Theorem 1.1 — preferential
// attachment grows hubs of degree ~√n, so the m + dmax²·ln n bound is no
// longer dominated by the edge count — and the Watts–Strogatz family
// sweeps the rewiring probability β to trace how the eigenvalue gap, and
// with it the Theorem 1.2 bound shape, controls the measured cover time.

// E15ScaleFree measures COBRA (b=2) cover time on BA graphs against the
// Theorem 1.1 bound, reporting what fraction of the bound the heavy-tail
// dmax²·ln n term contributes.
func E15ScaleFree(p Params) (*sim.Table, error) {
	sizes := pick(p, []int{128, 256}, []int{512, 1024, 2048, 4096})
	trials := pick(p, 5, 25)
	tb := sim.NewTable("E15: Theorem 1.1 on scale-free BA graphs — heavy-tail dmax^2 stress (b=2)",
		"graph", "n", "m", "dmax", "dmax2-share", "mean-cover", "bound", "ratio")
	tb.Note = "dmax2-share = dmax^2 ln n / bound: the heavy tail makes the dmax^2 term a first-class contributor"
	gen := xrand.New(p.Seed ^ 0xe15)
	for _, attach := range []int{2, 8} {
		for _, n := range sizes {
			g, err := graph.BarabasiAlbert(n, attach, gen)
			if err != nil {
				return nil, fmt.Errorf("E15 ba n=%d m=%d: %w", n, attach, err)
			}
			cfg := cfgFor(g)
			mean, err := meanCover(p, g, cfg, trials)
			if err != nil {
				return nil, fmt.Errorf("E15 %s: %w", g.Name(), err)
			}
			bound := bounds.General(g)
			dmax := g.MaxDegree()
			tail := float64(dmax) * float64(dmax) * math.Log(float64(g.N()))
			tb.AddRow(g.Name(), g.N(), g.M(), dmax,
				fmtRatio(tail/bound), fmt.Sprintf("%.1f", mean),
				fmt.Sprintf("%.0f", bound), fmtRatio(mean/bound))
		}
	}
	return tb, nil
}

// E16SmallWorld sweeps the Watts–Strogatz rewiring probability β at fixed
// (n, k): β = 0 is a ring lattice with diameter ~n/k and a vanishing
// eigenvalue gap, and a few percent of rewiring already opens the gap and
// collapses the cover time — the small-world transition seen through the
// Theorem 1.2 bound shape (k/gap + k²)·ln n (WS is near-regular, so k
// stands in for r).
//
// The β axis is one batch.Sweep submission (one ws graphspec per β):
// each graph compiles once into the sweep's cache — at cell admission,
// in cell order — GOMAXPROCS goroutines (CellWorkers = GOMAXPROCS), each
// with its own workspace, claim trials across the open cells behind the
// reorder buffer, and the same compiled graph then feeds the spectral gap
// column.
func E16SmallWorld(p Params) (*sim.Table, error) {
	n := pick(p, 256, 2048)
	k := pick(p, 6, 8)
	betas := pick(p, []float64{0.02, 0.3}, []float64{0, 0.01, 0.05, 0.1, 0.3, 1})
	trials := pick(p, 5, 25)
	tb := sim.NewTable("E16: Watts–Strogatz gap sweep — cover time across the small-world transition (b=2)",
		"graph", "n", "k", "beta", "gap", "mean-cover", "bound", "ratio")
	tb.Note = "bound = (k/gap + k^2) ln n (near-regular shape); the gap opens with beta and the cover time follows"

	specs := make([]string, len(betas))
	for i, beta := range betas {
		specs[i] = fmt.Sprintf("ws:%d:%d:%s", n, k, strconv.FormatFloat(beta, 'g', -1, 64))
	}
	compiled, cells, err := runSweep(p, "E16", batch.SweepSpec{
		Graphs:    specs,
		Processes: []string{"cobra"},
		Branches:  []int{2},
		Trials:    trials,
	})
	if err != nil {
		return nil, err
	}
	for i, beta := range betas {
		g := compiled[i].Graph()
		// The sweep runs the plain (non-lazy) process on every cell — WS
		// graphs with k >= 4 have triangles, so they are never bipartite —
		// and the gap must describe the chain that was simulated.
		gap, err := spectral.Gap(g, gapOpts)
		if err != nil {
			return nil, fmt.Errorf("E16 ws beta=%g gap: %w", beta, err)
		}
		mean := cells[i].Aggregate.Rounds.Mean
		bound := regularBound(k, gap, g.N())
		tb.AddRow(g.Name(), g.N(), k, fmt.Sprintf("%g", beta),
			fmt.Sprintf("%.4g", gap), fmt.Sprintf("%.1f", mean),
			fmt.Sprintf("%.0f", bound), fmtRatio(mean/bound))
	}
	return tb, nil
}
