package experiments

import (
	"context"
	"fmt"
	"runtime"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/gossip"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/walk"
	"github.com/repro/cobra/internal/xrand"
)

// E6Fractional regenerates Section 6: with fractional branching b = 1+ρ
// the bounds hold with round counts multiplied by 1/ρ². The experiment
// sweeps ρ on an expander and on the complete graph, reporting measured
// COBRA cover and BIPS infection times together with the normalisations
// rounds·ρ and rounds·ρ²: the paper's 1/ρ² factor is an upper-bound
// envelope, so rounds·ρ² must be bounded (non-increasing in 1/ρ), while
// the empirically dominant cost is closer to 1/ρ.
//
// The ρ sweep is one batch.Sweep submission (graphs × {cobra, bips} ×
// b=1 × rhos): each graph compiles once and is shared by its eight
// cells, and GOMAXPROCS goroutines (CellWorkers = GOMAXPROCS) claim
// trials across the open cells behind the sweep's reorder buffer —
// results are identical to the sequential path by the sweep determinism
// contract.
func E6Fractional(p Params) (*sim.Table, error) {
	trials := pick(p, 8, 40)
	tb := sim.NewTable("E6: Section 6 — fractional branching b = 1+rho",
		"graph", "rho", "cover", "cover*rho", "cover*rho^2", "infect", "infect*rho^2")
	tb.Note = "paper: rounds scale at most by 1/rho^2 vs b=2; rounds*rho^2 must stay bounded"

	n := pick(p, 64, 512)
	rhos := []float64{1, 0.5, 0.25, 0.125}
	sweep := batch.SweepSpec{
		Graphs:      []string{fmt.Sprintf("rreg:%d:4", n), fmt.Sprintf("complete:%d", n)},
		Processes:   []string{"cobra", "bips"},
		Branches:    []int{1},
		Rhos:        rhos,
		Trials:      trials,
		Seed:        p.Seed,
		Workers:     sweepTrialWorkers(p),
		CellWorkers: runtime.GOMAXPROCS(0),
	}
	sw, err := batch.CompileSweep(sweep, nil)
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	cells, err := sw.Run(context.Background(), nil)
	if err != nil {
		return nil, fmt.Errorf("E6: %w", err)
	}
	// Cell order: graphs outermost, then process, then rho innermost.
	perGraph := len(sweep.Processes) * len(rhos)
	for gi := range sweep.Graphs {
		name := sw.Cells()[gi*perGraph].Graph().Name()
		for ri, rho := range rhos {
			cover := cells[gi*perGraph+ri].Aggregate.Rounds.Mean
			infect := cells[gi*perGraph+len(rhos)+ri].Aggregate.Rounds.Mean
			tb.AddRow(name, rho,
				fmt.Sprintf("%.1f", cover),
				fmt.Sprintf("%.1f", cover*rho),
				fmt.Sprintf("%.1f", cover*rho*rho),
				fmt.Sprintf("%.1f", infect),
				fmt.Sprintf("%.1f", infect*rho*rho))
		}
	}
	return tb, nil
}

// E12Baselines regenerates the paper's framing: COBRA (b=2) against the
// b=1 simple random walk (cover Ω(n log n) everywhere), k independent
// random walks, and the push gossip protocol (unbounded per-vertex
// lifetime). Reported per graph: rounds to cover and total messages —
// COBRA's selling point is walk-like total work with push-like rounds.
func E12Baselines(p Params) (*sim.Table, error) {
	trials := pick(p, 5, 25)
	tb := sim.NewTable("E12: baselines — rounds (and messages) to inform all vertices",
		"graph", "cobra rounds", "cobra msgs", "rw steps", "multi-rw(16) rounds", "push rounds", "push msgs")
	tb.Note = "rw steps = single-token moves; COBRA/push rounds are synchronous; msgs = transmissions"
	gen := xrand.New(p.Seed ^ 0x12)

	rr, err := graph.RandomRegular(pick(p, 128, 1024), 3, gen)
	if err != nil {
		return nil, err
	}
	graphs := []*graph.Graph{
		graph.Complete(pick(p, 128, 1024)),
		graph.Cycle(pick(p, 128, 1024)),
		rr,
		graph.Lollipop(pick(p, 24, 96), pick(p, 24, 96)),
	}
	for gi, g := range graphs {
		runner := sim.Runner{Seed: p.Seed ^ uint64(0x12000+gi), Workers: p.Workers}
		type agg struct{ cobraR, cobraM, rw, multi, pushR, pushM float64 }
		results, err := runner.Run(trials, coverTrial(g, core.Config{Branch: 2}))
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", g.Name(), err)
		}
		var a agg
		for _, v := range results {
			a.cobraR += v
		}
		a.cobraR /= float64(len(results))
		// COBRA messages ≈ 2 msgs per active vertex per round; measure
		// exactly with one instrumented run.
		{
			proc, err := core.New(g, core.Config{Branch: 2}, []int{0}, xrand.NewStream(p.Seed, uint64(gi)))
			if err != nil {
				return nil, err
			}
			if _, err := proc.Run(); err != nil {
				return nil, err
			}
			a.cobraM = float64(proc.Transmissions())
		}
		rws, err := runner.Run(trials, func(trial int, rng *xrand.RNG) (float64, error) {
			s, err := walk.CoverTime(g, 0, false, rng)
			return float64(s), err
		})
		if err != nil {
			return nil, err
		}
		for _, v := range rws {
			a.rw += v
		}
		a.rw /= float64(len(rws))
		multis, err := runner.Run(trials, func(trial int, rng *xrand.RNG) (float64, error) {
			s, err := walk.MultiCoverTime(g, 16, 0, rng)
			return float64(s), err
		})
		if err != nil {
			return nil, err
		}
		for _, v := range multis {
			a.multi += v
		}
		a.multi /= float64(len(multis))
		var pr, pm float64
		for k := 0; k < trials; k++ {
			res, err := gossip.Push(g, 0, xrand.NewStream(p.Seed^0x12b, uint64(gi*1000+k)))
			if err != nil {
				return nil, err
			}
			pr += float64(res.Rounds)
			pm += float64(res.Messages)
		}
		a.pushR, a.pushM = pr/float64(trials), pm/float64(trials)

		tb.AddRow(g.Name(),
			fmt.Sprintf("%.1f", a.cobraR), fmt.Sprintf("%.0f", a.cobraM),
			fmt.Sprintf("%.0f", a.rw), fmt.Sprintf("%.1f", a.multi),
			fmt.Sprintf("%.1f", a.pushR), fmt.Sprintf("%.0f", a.pushM))
	}
	return tb, nil
}
