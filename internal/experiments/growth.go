package experiments

import (
	"fmt"
	"math"

	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/xrand"
)

// E9Growth regenerates Lemma 4.1 (and its fractional analogue Lemma 4.2):
// on an r-regular graph with second eigenvalue λ, one BIPS round from an
// infected set A satisfies
//
//	E(|A_{t+1}| | A_t = A) >= |A| (1 + ρ_eff (1−λ²)(1−|A|/n)).
//
// The experiment runs many BIPS trials, bins round transitions by |A_t|,
// and reports, per size decile, the empirical mean growth divided by the
// bound — which must be >= 1 (up to sampling noise on thin bins).
func E9Growth(p Params) (*sim.Table, error) {
	trials := pick(p, 40, 400)
	tb := sim.NewTable("E9: Lemma 4.1/4.2 — BIPS one-round growth vs |A|(1+rho(1-l^2)(1-|A|/n))",
		"graph", "rho_eff", "decile", "transitions", "mean growth", "bound growth", "ratio")
	tb.Note = "ratio = empirical/bound must be >= 1 (Lemma is a lower bound on E growth)"
	gen := xrand.New(p.Seed ^ 0xe9)

	type spec struct {
		g   *graph.Graph
		cfg bips.Config
		rho float64 // effective branching minus 1
	}
	rr, err := graph.RandomRegular(pick(p, 60, 200), 4, gen)
	if err != nil {
		return nil, err
	}
	specs := []spec{
		{rr, bips.Config{Branch: 2}, 1},
		{graph.Torus(pick(p, 9, 15), pick(p, 9, 15)), bips.Config{Branch: 2}, 1},
		{rr, bips.Config{Branch: 1, Rho: 0.5}, 0.5},
	}

	for si, sp := range specs {
		lam, err := lambdaOf(sp.g)
		if err != nil {
			return nil, err
		}
		n := sp.g.N()
		// Decile bins over |A| in [1, n].
		const bins = 10
		sumGrowth := make([]float64, bins)
		sumBound := make([]float64, bins)
		count := make([]int, bins)
		rng := xrand.NewStream(p.Seed^0xe9a, uint64(si))
		for k := 0; k < trials; k++ {
			proc, err := bips.New(sp.g, sp.cfg, 0, rng)
			if err != nil {
				return nil, err
			}
			for !proc.Complete() && proc.Round() < 64*n {
				a := proc.InfectedCount()
				proc.Step()
				b := proc.InfectedCount()
				bin := (a - 1) * bins / n
				if bin >= bins {
					bin = bins - 1
				}
				sumGrowth[bin] += float64(b)
				// Products are rounded explicitly so no target fuses
				// them into multiply-adds (see package stats).
				gain := 1 + float64(sp.rho*(1-float64(lam*lam))*(1-float64(a)/float64(n)))
				sumBound[bin] += float64(float64(a) * gain)
				count[bin]++
			}
		}
		for b := 0; b < bins; b++ {
			if count[b] < pick(p, 20, 100) {
				continue // too thin to be meaningful
			}
			growth := sumGrowth[b] / float64(count[b])
			bound := sumBound[b] / float64(count[b])
			tb.AddRow(sp.g.Name(), sp.rho,
				fmt.Sprintf("%d0%%", b+1), count[b],
				fmt.Sprintf("%.2f", growth), fmt.Sprintf("%.2f", bound),
				fmtRatio(growth/bound))
		}
	}
	return tb, nil
}

func lambdaOf(g *graph.Graph) (float64, error) {
	gap, err := spectral.Gap(g, gapOpts)
	if err != nil {
		return 0, err
	}
	return 1 - gap, nil
}

// E10Martingale regenerates equation (18) and its Section 6 analogue: in
// the serialised BIPS process every step's conditional expectation
// E(Y_l | Y_1..Y_{l-1}) is at least 1/2 (b = 2), respectively ρ/2
// (b = 1+ρ). The experiment serialises full runs and reports the minimum
// ExpectedY over all non-source steps, the overall empirical mean of Y,
// and the number of steps checked.
func E10Martingale(p Params) (*sim.Table, error) {
	trials := pick(p, 10, 60)
	tb := sim.NewTable("E10: eq. (18) — serialised BIPS steps, E(Y_l|past) >= floor",
		"graph", "variant", "floor", "steps", "min E(Y)", "mean Y", "violations")
	tb.Note = "min E(Y) over every non-source step must be >= floor (1/2 for b=2, rho/2 for 1+rho)"
	gen := xrand.New(p.Seed ^ 0x10)

	rr, err := graph.RandomRegular(pick(p, 40, 120), 3, gen)
	if err != nil {
		return nil, err
	}
	er, err := graph.ErdosRenyi(pick(p, 40, 120), 0.12, gen)
	if err != nil {
		return nil, err
	}
	type spec struct {
		g       *graph.Graph
		cfg     bips.Config
		variant string
	}
	specs := []spec{
		{graph.Complete(pick(p, 24, 64)), bips.Config{Branch: 2}, "b=2"},
		{graph.Lollipop(pick(p, 8, 16), pick(p, 8, 16)), bips.Config{Branch: 2}, "b=2"},
		{rr, bips.Config{Branch: 2}, "b=2"},
		{er, bips.Config{Branch: 2}, "b=2"},
		{rr, bips.Config{Branch: 1, Rho: 0.5}, "b=1.5"},
		{rr, bips.Config{Branch: 1, Rho: 0.25}, "b=1.25"},
	}
	for si, sp := range specs {
		rng := xrand.NewStream(p.Seed^0x10a, uint64(si))
		floor := bips.MartingaleFloor(sp.cfg)
		minE := math.Inf(1)
		var sumY float64
		steps, violations := 0, 0
		for k := 0; k < trials; k++ {
			proc, err := bips.New(sp.g, sp.cfg, 0, rng)
			if err != nil {
				return nil, err
			}
			for !proc.Complete() && proc.Round() < 64*sp.g.N() {
				recs, err := proc.SerialRound()
				if err != nil {
					return nil, err
				}
				for _, st := range recs {
					if st.IsSource {
						continue
					}
					steps++
					sumY += float64(st.Y)
					if st.ExpectedY < minE {
						minE = st.ExpectedY
					}
					if st.ExpectedY < floor-1e-12 {
						violations++
					}
				}
			}
		}
		tb.AddRow(sp.g.Name(), sp.variant, floor, steps,
			fmt.Sprintf("%.4f", minE), fmt.Sprintf("%.4f", sumY/float64(steps)), violations)
	}
	return tb, nil
}

// E11Candidates regenerates Corollary 5.2: on an n-vertex r-regular graph,
// whenever |A_{t−1}| <= n/2 the candidate set of the next round satisfies
// |C_t| >= |A_{t−1}|(1−λ)/2 — a deterministic consequence of Lemma 4.1.
// The experiment traces BIPS runs and reports the minimum observed ratio
// |C_t| / (|A_{t−1}|(1−λ)/2), which must be >= 1.
func E11Candidates(p Params) (*sim.Table, error) {
	trials := pick(p, 20, 150)
	tb := sim.NewTable("E11: Corollary 5.2 — |C_t| >= |A_{t-1}|(1-l)/2 while |A| <= n/2",
		"graph", "gap", "rounds checked", "min ratio", "mean ratio")
	tb.Note = "ratio = |C_t| / (|A|(1-l)/2); the corollary asserts min ratio >= 1"
	gen := xrand.New(p.Seed ^ 0x11)

	rr3, err := graph.RandomRegular(pick(p, 60, 250), 3, gen)
	if err != nil {
		return nil, err
	}
	rr8, err := graph.RandomRegular(pick(p, 64, 256), 8, gen)
	if err != nil {
		return nil, err
	}
	graphs := []*graph.Graph{
		rr3, rr8,
		graph.Torus(pick(p, 9, 15), pick(p, 9, 15)),
		graph.DoubleCycle(pick(p, 40, 120)),
	}
	for gi, g := range graphs {
		gap, err := spectral.Gap(g, gapOpts)
		if err != nil {
			return nil, err
		}
		rng := xrand.NewStream(p.Seed^0x11a, uint64(gi))
		minRatio := math.Inf(1)
		var sumRatio float64
		checked := 0
		for k := 0; k < trials; k++ {
			proc, err := bips.New(g, bips.Config{Branch: 2}, 0, rng)
			if err != nil {
				return nil, err
			}
			for !proc.Complete() && proc.Round() < 64*g.N() {
				a := proc.InfectedCount()
				if a <= g.N()/2 {
					c := proc.CandidateCount()
					bound := float64(a) * gap / 2
					if bound > 0 {
						r := float64(c) / bound
						if r < minRatio {
							minRatio = r
						}
						sumRatio += r
						checked++
					}
				}
				proc.Step()
			}
		}
		tb.AddRow(g.Name(), fmt.Sprintf("%.4f", gap), checked,
			fmt.Sprintf("%.2f", minRatio), fmt.Sprintf("%.2f", sumRatio/float64(checked)))
	}
	return tb, nil
}
