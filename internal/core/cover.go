package core

import (
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// High-level drivers corresponding to the paper's measured quantities.

// CoverTime runs one COBRA trial from the single start vertex and returns
// cover(start): the number of rounds until all vertices have been visited.
func CoverTime(g *graph.Graph, cfg Config, start int, rng *xrand.RNG) (int, error) {
	return CoverTimeWith(engine.NewWorkspace(), g, cfg, start, rng)
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
	return HitTimeFromSet(g, cfg, []int{start}, target, rng)
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
	limit := cfg.RoundLimit(g.N())
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
