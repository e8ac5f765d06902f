package core

import (
	"fmt"

	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// High-level drivers corresponding to the paper's measured quantities.

// CoverTime runs one COBRA trial from the single start vertex and returns
// cover(start): the number of rounds until all vertices have been visited.
func CoverTime(g *graph.Graph, cfg Config, start int, rng *xrand.RNG) (int, error) {
	p, err := New(g, cfg, []int{start}, rng)
	if err != nil {
		return 0, err
	}
	return p.Run()
}

// CoverTimeWith is CoverTime with the kernel built through ws: the same
// result bit for bit, amortizing allocations across trials (the hot-loop
// form for repeated trials on shared graphs).
func CoverTimeWith(ws *engine.Workspace, g *graph.Graph, cfg Config, start int, rng *xrand.RNG) (int, error) {
	p, err := NewWith(ws, g, cfg, []int{start}, rng)
	if err != nil {
		return 0, err
	}
	return p.Run()
}

// HitTime runs one COBRA trial from start and returns Hit_start(target),
// the first round at which target holds a particle.
func HitTime(g *graph.Graph, cfg Config, start, target int, rng *xrand.RNG) (int, error) {
	p, err := New(g, cfg, []int{start}, rng)
	if err != nil {
		return 0, err
	}
	return p.RunUntilHit(target)
}

// HitTimeFromSet runs one trial with C_0 = starts and returns the round at
// which target is first visited. This is the left-hand side of the duality
// Theorem 1.3 (P̂(Hit(v) > T | C_0 = C)).
func HitTimeFromSet(g *graph.Graph, cfg Config, starts []int, target int, rng *xrand.RNG) (int, error) {
	p, err := New(g, cfg, starts, rng)
	if err != nil {
		return 0, err
	}
	return p.RunUntilHit(target)
}

// RoundTrace records the trajectory of one run for growth-curve analysis.
type RoundTrace struct {
	// ActiveSize[t] is |C_t| (index 0 holds |C_0|).
	ActiveSize []int
	// CoveredSize[t] is |∪_{s<=t} C_s|.
	CoveredSize []int
	// CoverRound is the round at which covering completed (-1 if the run
	// hit the round cap first).
	CoverRound int
}

// Trace runs one COBRA trial from start, recording per-round set sizes.
func Trace(g *graph.Graph, cfg Config, start int, rng *xrand.RNG) (*RoundTrace, error) {
	p, err := New(g, cfg, []int{start}, rng)
	if err != nil {
		return nil, err
	}
	tr := &RoundTrace{CoverRound: -1}
	tr.ActiveSize = append(tr.ActiveSize, p.Current().Count())
	tr.CoveredSize = append(tr.CoveredSize, p.CoveredCount())
	limit := cfg.maxRounds(g.N())
	for !p.Complete() && p.Round() < limit {
		p.Step()
		tr.ActiveSize = append(tr.ActiveSize, p.Current().Count())
		tr.CoveredSize = append(tr.CoveredSize, p.CoveredCount())
	}
	if p.Complete() {
		tr.CoverRound = p.Round()
	}
	return tr, nil
}

// HitTimes runs one COBRA trial from start and returns, for every vertex
// v, the round Hit(v) at which v was first visited (Hit(start) = 0).
// The last entries to fill reveal where the cover time concentrates —
// e.g. the path tip of a lollipop, or the antipode of a torus.
func HitTimes(g *graph.Graph, cfg Config, start int, rng *xrand.RNG) ([]int, error) {
	p, err := New(g, cfg, []int{start}, rng)
	if err != nil {
		return nil, err
	}
	hits := make([]int, g.N())
	for i := range hits {
		hits[i] = -1
	}
	hits[start] = 0
	limit := cfg.maxRounds(g.N())
	seen := 1
	for seen < g.N() {
		if p.Round() >= limit {
			return hits, fmt.Errorf("%w: %d rounds on %s", ErrRoundLimit, p.Round(), g.Name())
		}
		p.Step()
		p.Current().ForEach(func(v int) {
			if hits[v] < 0 {
				hits[v] = p.Round()
				seen++
			}
		})
	}
	return hits, nil
}

// WorstStartCover estimates COVER(G) = max_u COVER(u) by running `trials`
// runs from each vertex of a candidate start set (all vertices when
// starts is nil) and returning the per-start mean maximised over starts.
// This mirrors the paper's worst-case-start definition of cover time.
func WorstStartCover(g *graph.Graph, cfg Config, starts []int, trials int, rng *xrand.RNG) (worstMean float64, worstStart int, err error) {
	if starts == nil {
		starts = make([]int, g.N())
		for i := range starts {
			starts[i] = i
		}
	}
	worstStart = -1
	for _, u := range starts {
		var sum float64
		for k := 0; k < trials; k++ {
			t, e := CoverTime(g, cfg, u, rng)
			if e != nil {
				return 0, 0, e
			}
			sum += float64(t)
		}
		if mean := sum / float64(trials); mean > worstMean {
			worstMean, worstStart = mean, u
		}
	}
	return worstMean, worstStart, nil
}
