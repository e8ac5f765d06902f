package experiments

import (
	"fmt"
	"math/bits"

	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/bounds"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/xrand"
)

// familySpec names a graph family and builds an instance near size n.
type familySpec struct {
	name  string
	build func(n int, rng *xrand.RNG) (*graph.Graph, error)
}

// generalFamilies are the Theorem 1.1 workloads: arbitrary connected
// graphs spanning sparse/dense, low/high dmax, good/terrible expansion.
func generalFamilies() []familySpec {
	return []familySpec{
		{"path", func(n int, _ *xrand.RNG) (*graph.Graph, error) { return graph.Path(n), nil }},
		{"cycle", func(n int, _ *xrand.RNG) (*graph.Graph, error) { return graph.Cycle(n), nil }},
		{"star", func(n int, _ *xrand.RNG) (*graph.Graph, error) { return graph.Star(n), nil }},
		{"bintree", func(n int, _ *xrand.RNG) (*graph.Graph, error) { return graph.BinaryTree(n), nil }},
		{"lollipop", func(n int, _ *xrand.RNG) (*graph.Graph, error) {
			return graph.Lollipop(n/3, n-n/3), nil
		}},
		{"barbell", func(n int, _ *xrand.RNG) (*graph.Graph, error) {
			k := n * 2 / 5
			return graph.Barbell(k, n-2*k), nil
		}},
		{"rtree", func(n int, rng *xrand.RNG) (*graph.Graph, error) { return graph.RandomTree(n, rng) }},
		{"er", func(n int, rng *xrand.RNG) (*graph.Graph, error) {
			p := 2.5 * logf(n) / float64(n)
			return graph.ErdosRenyi(n, p, rng)
		}},
		{"complete", func(n int, _ *xrand.RNG) (*graph.Graph, error) { return graph.Complete(n), nil }},
	}
}

// logf returns ⌈log₂ n⌉·ln 2, the natural log of n rounded up to a
// power of two.
func logf(n int) float64 {
	return float64(bits.Len(uint(n-1))) * 0.6931471805599453
}

// E1GeneralGraphs regenerates the Theorem 1.1 check: for each family and
// size, mean COBRA (b=2, lazy iff bipartite) cover time against the bound
// shape m + dmax^2 ln n. The reproduction claim is that the ratio
// cover/bound stays bounded (no blow-up as n grows), confirming the
// bound's shape; for most families it is far below 1, reflecting that the
// bound is worst-case.
func E1GeneralGraphs(p Params) (*sim.Table, error) {
	sizes := pick(p, []int{64, 128}, []int{128, 256, 512, 1024})
	trials := pick(p, 5, 25)
	tb := sim.NewTable("E1: Theorem 1.1 — cover(u) vs m + dmax^2 ln n (b=2)",
		"graph", "n", "m", "dmax", "lazy", "mean-cover", "bound", "ratio")
	tb.Note = "ratio = measured / bound must stay O(1) as n grows (shape check)"
	gen := xrand.New(p.Seed ^ 0xe1)
	for _, fam := range generalFamilies() {
		for _, n := range sizes {
			g, err := fam.build(n, gen)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", fam.name, n, err)
			}
			cfg := cfgFor(g)
			mean, err := meanCover(p, g, cfg, trials)
			if err != nil {
				return nil, fmt.Errorf("E1 %s n=%d: %w", fam.name, n, err)
			}
			bound := bounds.General(g)
			tb.AddRow(fam.name, g.N(), g.M(), g.MaxDegree(), cfg.Lazy,
				fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f", bound), fmtRatio(mean/bound))
		}
	}
	return tb, nil
}

// E5BIPS regenerates the Theorems 1.4/1.5 check: BIPS infection time on
// the same general families (vs the Theorem 1.4 bound) and on regular
// families (vs the Theorem 1.5 bound). The duality predicts infection
// times of the same order as cover times.
func E5BIPS(p Params) (*sim.Table, error) {
	sizes := pick(p, []int{64}, []int{128, 256, 512})
	trials := pick(p, 5, 25)
	tb := sim.NewTable("E5: Theorems 1.4/1.5 — BIPS infection time vs bounds (b=2)",
		"graph", "n", "kind", "mean-infect", "bound", "ratio")
	tb.Note = "general families vs m + dmax^2 ln n; regular families vs (r/(1-l)+r^2) ln n"
	gen := xrand.New(p.Seed ^ 0xe5)

	// General families (Theorem 1.4).
	for _, fam := range generalFamilies() {
		for _, n := range sizes {
			g, err := fam.build(n, gen)
			if err != nil {
				return nil, fmt.Errorf("E5 %s: %w", fam.name, err)
			}
			cfg := bips.Config{Branch: 2, Lazy: g.IsBipartite()}
			mean, err := p.runner().RunMeans(trials, infectTrial(g, cfg))
			if err != nil {
				return nil, fmt.Errorf("E5 %s: %w", fam.name, err)
			}
			bound := bounds.General(g)
			tb.AddRow(fam.name, g.N(), "general",
				fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f", bound), fmtRatio(mean/bound))
		}
	}

	// Regular families (Theorem 1.5).
	for _, n := range sizes {
		for _, r := range pick(p, []int{3}, []int{3, 4, 8}) {
			nn := n
			if nn*r%2 != 0 {
				nn++
			}
			g, err := graph.RandomRegular(nn, r, gen)
			if err != nil {
				return nil, fmt.Errorf("E5 rreg: %w", err)
			}
			gap, err := spectral.Gap(g, gapOpts)
			if err != nil {
				return nil, err
			}
			mean, err := p.runner().RunMeans(trials, infectTrial(g, bips.Config{Branch: 2}))
			if err != nil {
				return nil, err
			}
			bound := regularBound(r, gap, g.N())
			tb.AddRow(g.Name(), g.N(), "regular",
				fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.0f", bound), fmtRatio(mean/bound))
		}
	}
	return tb, nil
}
