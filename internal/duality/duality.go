// Package duality reproduces Theorem 1.3, the COBRA–BIPS duality of
// [Cooper et al., PODC 2016] that the paper's proofs rest on:
//
//	P̂(Hit(v) > T | C₀ = C) = P(C ∩ A_T = ∅ | A₀ = {v}).
//
// Two independent verifications are provided:
//
//  1. Pathwise replay (the proof idea): materialise the neighbour
//     selections ω(u, t) ⊆ N(u) for all u ∈ V, 1 <= t <= T; run COBRA
//     forward on the table and BIPS backward (round s uses ω(·, T+1−s))
//     on the same table; then "v visited by COBRA within T rounds" must
//     hold if and only if "some vertex of C is infected at BIPS round T" —
//     an exact, per-sample equivalence.
//
//  2. Monte-Carlo two-sided estimation: estimate both probabilities with
//     independent trials and confirm they agree within confidence bounds
//     (done by the experiment harness; this package provides the two
//     estimators).
package duality

import (
	"errors"
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// ErrInput flags invalid arguments to the duality drivers.
var ErrInput = errors.New("duality: invalid input")

// Config selects the shared process variant: core.Config, the type the
// core (COBRA) and bips packages run. The duality holds for every such
// variant (the paper proves it for all b = 1+ρ, and the replay argument
// extends verbatim to lazy selections). MaxRounds is ignored.
type Config = core.Config

// Table is a materialised selection table ω(u, t) for rounds 1..T.
// Entry (t, u) lists the vertices selected by u in round t (neighbours of
// u, or u itself under the lazy variant); length varies per entry under
// fractional branching.
type Table struct {
	T   int
	sel [][][]int32 // sel[t-1][u]
}

// SampleTable draws a fresh selection table for T rounds on g under cfg.
func SampleTable(g *graph.Graph, cfg Config, T int, rng *xrand.RNG) (*Table, error) {
	if err := engine.ValidateBranching(ErrInput, cfg.Branch, cfg.Rho); err != nil {
		return nil, err
	}
	if T < 0 {
		return nil, fmt.Errorf("%w: negative T", ErrInput)
	}
	tab := &Table{T: T, sel: make([][][]int32, T)}
	n := g.N()
	for t := 0; t < T; t++ {
		tab.sel[t] = make([][]int32, n)
		for u := 0; u < n; u++ {
			b := cfg.Branch
			if cfg.Rho > 0 && rng.Bernoulli(cfg.Rho) {
				b++
			}
			row := make([]int32, b)
			deg := g.Degree(u)
			for k := 0; k < b; k++ {
				if cfg.Lazy && rng.Bool() {
					row[k] = int32(u)
				} else {
					row[k] = int32(g.Neighbor(u, rng.Intn(deg)))
				}
			}
			tab.sel[t][u] = row
		}
	}
	return tab, nil
}

// ReplayCOBRA runs COBRA forward on the table from C₀ = starts and
// reports whether target is visited within the table's T rounds
// (Hit(target) <= T, counting membership of C₀ itself as round 0).
func (tab *Table) ReplayCOBRA(g *graph.Graph, starts []int, target int) bool {
	n := g.N()
	cur := bitset.New(n)
	next := bitset.New(n)
	for _, v := range starts {
		cur.Set(v)
	}
	if cur.Contains(target) {
		return true
	}
	for t := 0; t < tab.T; t++ {
		next.Reset()
		row := tab.sel[t]
		cur.ForEach(func(u int) {
			for _, w := range row[u] {
				next.Set(int(w))
			}
		})
		cur, next = next, cur
		if cur.Contains(target) {
			return true
		}
	}
	return false
}

// ReplayBIPS runs BIPS backward on the table (BIPS round s consumes
// ω(·, T+1−s)) with the given persistent source, and reports whether the
// final infected set A_T intersects the set C.
func (tab *Table) ReplayBIPS(g *graph.Graph, source int, c []int) bool {
	n := g.N()
	cur := bitset.New(n)
	next := bitset.New(n)
	cur.Set(source)
	for s := 1; s <= tab.T; s++ {
		row := tab.sel[tab.T-s] // time reversal
		next.Reset()
		for u := 0; u < n; u++ {
			if u == source {
				next.Set(u)
				continue
			}
			for _, w := range row[u] {
				if cur.Contains(int(w)) {
					next.Set(u)
					break
				}
			}
		}
		cur, next = next, cur
	}
	for _, u := range c {
		if cur.Contains(u) {
			return true
		}
	}
	return false
}

// CheckPathwise samples one table and verifies the exact equivalence
// "target hit by COBRA from starts within T" ⇔ "starts ∩ A_T ≠ ∅ in BIPS
// with source target". It returns the two booleans; the caller asserts
// equality. This is the proof of Theorem 1.3 executed on one sample.
func CheckPathwise(g *graph.Graph, cfg Config, starts []int, target, T int, rng *xrand.RNG) (cobraHit, bipsMeet bool, err error) {
	if target < 0 || target >= g.N() {
		return false, false, fmt.Errorf("%w: target %d", ErrInput, target)
	}
	if len(starts) == 0 {
		return false, false, fmt.Errorf("%w: empty start set", ErrInput)
	}
	for _, v := range starts {
		if v < 0 || v >= g.N() {
			return false, false, fmt.Errorf("%w: start %d", ErrInput, v)
		}
	}
	tab, err := SampleTable(g, cfg, T, rng)
	if err != nil {
		return false, false, err
	}
	return tab.ReplayCOBRA(g, starts, target), tab.ReplayBIPS(g, target, starts), nil
}

// HitProbability Monte-Carlo estimates the COBRA side,
// P̂(Hit(target) > T | C₀ = starts), with `trials` independent runs.
func HitProbability(g *graph.Graph, cfg Config, starts []int, target, T, trials int, rng *xrand.RNG) (float64, error) {
	return missRate(g, cfg, T, trials, rng, func(tab *Table) bool { return tab.ReplayCOBRA(g, starts, target) })
}

// EscapeProbability Monte-Carlo estimates the BIPS side,
// P(starts ∩ A_T = ∅ | A₀ = {source}), with `trials` independent runs.
func EscapeProbability(g *graph.Graph, cfg Config, source int, starts []int, T, trials int, rng *xrand.RNG) (float64, error) {
	return missRate(g, cfg, T, trials, rng, func(tab *Table) bool { return tab.ReplayBIPS(g, source, starts) })
}

// missRate samples `trials` tables and returns the share on which met
// reports false.
func missRate(g *graph.Graph, cfg Config, T, trials int, rng *xrand.RNG, met func(*Table) bool) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("%w: trials < 1", ErrInput)
	}
	miss := 0
	for k := 0; k < trials; k++ {
		tab, err := SampleTable(g, cfg, T, rng)
		if err != nil {
			return 0, err
		}
		if !met(tab) {
			miss++
		}
	}
	return float64(miss) / float64(trials), nil
}
