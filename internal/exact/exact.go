// Package exact computes COBRA and BIPS quantities *exactly* on small
// graphs by evolving probability distributions over vertex subsets
// (bitmask state spaces), with no Monte-Carlo error. It serves as the
// ground truth against which the simulators are validated, and verifies
// the duality Theorem 1.3 to machine precision:
//
//	CobraHitProbability(g, cfg, C, v, T) ==
//	BipsMeetComplementProbability(g, cfg, v, C, T)
//
// for every graph, variant and horizon — an equality of two numbers
// computed through entirely different recursions.
//
// Complexity is O(poly · 2ⁿ) per round (see the per-function notes), so
// the package enforces n <= MaxN.
package exact

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
)

// MaxN caps the subset state space at 2^MaxN.
const MaxN = 14

// ErrInput flags invalid arguments.
var ErrInput = errors.New("exact: invalid input")

// Config is the simulators' variant selection, core.Config: integer
// Branch (1, 2 or 3 supported here), fractional Rho, Lazy selections.
// MaxRounds is ignored.
type Config = core.Config

// validate is exact's check of the variant: the simulators' branching
// check under ErrInput, narrowed to the factors exact supports (b = 1,
// 1+ρ, 2, 3).
func validate(c Config) error {
	if err := engine.ValidateBranching(ErrInput, c.Branch, c.Rho); err != nil {
		return err
	}
	if c.Branch > 3 {
		return fmt.Errorf("%w: exact analysis supports Branch 1..3, got %d", ErrInput, c.Branch)
	}
	if c.Branch > 1 && c.Rho != 0 {
		return fmt.Errorf("%w: fractional Rho requires Branch=1", ErrInput)
	}
	return nil
}

func checkGraph(g *graph.Graph) error {
	if g.N() > MaxN {
		return fmt.Errorf("%w: n = %d exceeds MaxN = %d", ErrInput, g.N(), MaxN)
	}
	return nil
}

// pickDist returns vertex u's single-selection distribution as parallel
// slices (targets, probs): uniform over neighbours, or lazy (self with
// probability 1/2, neighbours with 1/(2d) each).
func pickDist(g *graph.Graph, cfg Config, u int) ([]int, []float64) {
	deg := g.Degree(u)
	if cfg.Lazy {
		targets := make([]int, deg+1)
		probs := make([]float64, deg+1)
		targets[0] = u
		probs[0] = 0.5
		for i := 0; i < deg; i++ {
			targets[i+1] = g.Neighbor(u, i)
			probs[i+1] = 0.5 / float64(deg)
		}
		return targets, probs
	}
	targets := make([]int, deg)
	probs := make([]float64, deg)
	for i := 0; i < deg; i++ {
		targets[i] = g.Neighbor(u, i)
		probs[i] = 1 / float64(deg)
	}
	return targets, probs
}

// outcomeDist returns the distribution of the SET of vertices that u's
// selections cover in one round, as a map from bitmask to probability.
// For Branch=2: two independent picks. For Branch=1 with Rho: one pick,
// plus a second with probability Rho.
func outcomeDist(g *graph.Graph, cfg Config, u int) map[uint32]float64 {
	targets, probs := pickDist(g, cfg, u)
	out := make(map[uint32]float64)
	single := func(w float64) {
		for i, t := range targets {
			out[uint32(1)<<uint(t)] += w * probs[i]
		}
	}
	double := func(w float64) {
		for i, t1 := range targets {
			for j, t2 := range targets {
				mask := uint32(1)<<uint(t1) | uint32(1)<<uint(t2)
				out[mask] += w * probs[i] * probs[j]
			}
		}
	}
	triple := func(w float64) {
		for i, t1 := range targets {
			for j, t2 := range targets {
				for k, t3 := range targets {
					mask := uint32(1)<<uint(t1) | uint32(1)<<uint(t2) | uint32(1)<<uint(t3)
					out[mask] += w * probs[i] * probs[j] * probs[k]
				}
			}
		}
	}
	switch {
	case cfg.Branch == 3:
		triple(1)
	case cfg.Branch == 2:
		double(1)
	case cfg.Rho == 0:
		single(1)
	default:
		single(1 - cfg.Rho)
		double(cfg.Rho)
	}
	return out
}

// CobraHitProbability computes P̂(Hit(target) > T | C₀ = starts) exactly:
// the probability that COBRA started from the set `starts` has not
// visited target within T rounds. It evolves the distribution of the
// active set C_t over subsets, collapsing all states whose history
// touched target into an absorbing "hit" mass.
//
// Cost: O(T · 2ⁿ · Σ_v d(v)²) in the worst case.
func CobraHitProbability(g *graph.Graph, cfg Config, starts []int, target, T int) (float64, error) {
	if err := validate(cfg); err != nil {
		return 0, err
	}
	if err := checkGraph(g); err != nil {
		return 0, err
	}
	if target < 0 || target >= g.N() {
		return 0, fmt.Errorf("%w: target %d", ErrInput, target)
	}
	if len(starts) == 0 {
		return 0, fmt.Errorf("%w: empty start set", ErrInput)
	}
	if T < 0 {
		return 0, fmt.Errorf("%w: negative T", ErrInput)
	}
	n := g.N()
	var startMask uint32
	for _, v := range starts {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("%w: start %d", ErrInput, v)
		}
		startMask |= 1 << uint(v)
	}
	targetBit := uint32(1) << uint(target)
	if startMask&targetBit != 0 {
		return 0, nil
	}
	size := 1 << uint(n)
	dist := make([]float64, size) // over active sets that have NOT hit target
	dist[startMask] = 1
	outcomes := make([]map[uint32]float64, n)
	for v := 0; v < n; v++ {
		outcomes[v] = outcomeDist(g, cfg, v)
	}
	next := make([]float64, size)
	scratch := make(map[uint32]float64, size)
	for t := 0; t < T; t++ {
		for i := range next {
			next[i] = 0
		}
		for mask := 1; mask < size; mask++ {
			p := dist[mask]
			if p == 0 {
				continue
			}
			// Convolve the outcome distributions of the active vertices.
			for k := range scratch {
				delete(scratch, k)
			}
			scratch[0] = p
			m := uint32(mask)
			for m != 0 {
				v := trailingZeros(m)
				m &^= 1 << uint(v)
				conv := make(map[uint32]float64, len(scratch)*2)
				for acc, pw := range scratch {
					for om, op := range outcomes[v] {
						conv[acc|om] += pw * op
					}
				}
				// Reuse scratch's identity by replacing contents.
				for k := range scratch {
					delete(scratch, k)
				}
				for k, v2 := range conv {
					scratch[k] = v2
				}
			}
			for nm, np := range scratch {
				if nm&targetBit != 0 {
					continue // absorbed into "hit"; drop from survival mass
				}
				next[nm] += np
			}
		}
		dist, next = next, dist
	}
	var surv float64
	for _, p := range dist {
		surv += p
	}
	return surv, nil
}

func trailingZeros(m uint32) int { return bits.TrailingZeros32(m) }

// bipsStep evolves a BIPS subset distribution one round. For each current
// infected set A, every vertex u independently belongs to the next set
// with probability p_u(A) (source with probability 1). The per-state
// expansion is a DP over vertices: O(n · 2ⁿ) per source state.
func bipsStep(g *graph.Graph, cfg Config, source int, dist, next []float64, buf0, buf1 []float64) {
	n := g.N()
	size := 1 << uint(n)
	for i := range next {
		next[i] = 0
	}
	probs := make([]float64, n)
	for mask := 0; mask < size; mask++ {
		p := dist[mask]
		if p == 0 {
			continue
		}
		for u := 0; u < n; u++ {
			probs[u] = infectProb(g, cfg, uint32(mask), u, source)
		}
		// DP over vertices: buf holds distribution over subsets of the
		// first k vertices.
		cur := buf0[:1]
		cur[0] = p
		width := 1
		for u := 0; u < n; u++ {
			nw := width << 1
			out := buf1[:nw]
			pu := probs[u]
			for m2 := 0; m2 < width; m2++ {
				w := cur[m2]
				out[m2] = w * (1 - pu)
				out[m2|width] = w * pu
			}
			cur = out
			buf0, buf1 = buf1, buf0
			width = nw
		}
		for m2 := 0; m2 < size; m2++ {
			next[m2] += cur[m2]
		}
	}
}

// infectProb returns the probability that vertex u is in the next
// infected set given current set A (as mask) under cfg; 1 for the source.
func infectProb(g *graph.Graph, cfg Config, a uint32, u, source int) float64 {
	if u == source {
		return 1
	}
	deg := g.Degree(u)
	dA := 0
	for _, w := range g.Neighbors(u) {
		if a&(1<<uint(w)) != 0 {
			dA++
		}
	}
	// q = P(one selection lands in A).
	q := float64(dA) / float64(deg)
	if cfg.Lazy {
		self := 0.0
		if a&(1<<uint(u)) != 0 {
			self = 1
		}
		q = 0.5*self + 0.5*q
	}
	switch {
	case cfg.Branch == 3:
		miss := (1 - q) * (1 - q) * (1 - q)
		return 1 - miss
	case cfg.Branch == 2:
		return 1 - (1-q)*(1-q)
	case cfg.Rho == 0:
		return q
	default:
		return 1 - (1-q)*(1-cfg.Rho*q)
	}
}

// BipsMeetComplementProbability computes P(C ∩ A_T = ∅ | A₀ = {source})
// exactly — the right-hand side of Theorem 1.3.
//
// Cost: O(T · n · 4ⁿ) in the worst case (practical for n <= ~12).
func BipsMeetComplementProbability(g *graph.Graph, cfg Config, source int, c []int, T int) (float64, error) {
	if err := validate(cfg); err != nil {
		return 0, err
	}
	if err := checkGraph(g); err != nil {
		return 0, err
	}
	if source < 0 || source >= g.N() {
		return 0, fmt.Errorf("%w: source %d", ErrInput, source)
	}
	if len(c) == 0 {
		return 0, fmt.Errorf("%w: empty C", ErrInput)
	}
	if T < 0 {
		return 0, fmt.Errorf("%w: negative T", ErrInput)
	}
	n := g.N()
	var cMask uint32
	for _, v := range c {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("%w: C member %d", ErrInput, v)
		}
		cMask |= 1 << uint(v)
	}
	size := 1 << uint(n)
	dist := make([]float64, size)
	dist[1<<uint(source)] = 1
	next := make([]float64, size)
	buf0 := make([]float64, size)
	buf1 := make([]float64, size)
	for t := 0; t < T; t++ {
		bipsStep(g, cfg, source, dist, next, buf0, buf1)
		dist, next = next, dist
	}
	var miss float64
	for mask := 0; mask < size; mask++ {
		if uint32(mask)&cMask == 0 {
			miss += dist[mask]
		}
	}
	return miss, nil
}

// ExpectedInfectionTime computes E[infec(source)] exactly as
// Σ_{t≥0} P(A_t ≠ V), truncating when the residual probability falls
// below tol (default 1e-12 when tol <= 0). Returns an error if the
// expectation has not converged within maxRounds (default 10⁶/n).
func ExpectedInfectionTime(g *graph.Graph, cfg Config, source int, tol float64) (float64, error) {
	if err := validate(cfg); err != nil {
		return 0, err
	}
	if err := checkGraph(g); err != nil {
		return 0, err
	}
	if source < 0 || source >= g.N() {
		return 0, fmt.Errorf("%w: source %d", ErrInput, source)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := g.N()
	size := 1 << uint(n)
	full := size - 1
	dist := make([]float64, size)
	dist[1<<uint(source)] = 1
	next := make([]float64, size)
	buf0 := make([]float64, size)
	buf1 := make([]float64, size)
	var expect float64
	maxRounds := 1 << 20
	for t := 0; t < maxRounds; t++ {
		notFull := 1 - dist[full]
		if notFull < tol {
			return expect, nil
		}
		expect += notFull
		bipsStep(g, cfg, source, dist, next, buf0, buf1)
		dist, next = next, dist
		// A_t = V is absorbing: once fully infected every vertex has all
		// neighbours infected, so p_u = 1 for all u. The recursion keeps
		// that mass at `full` automatically; no special casing needed.
	}
	return expect, fmt.Errorf("%w: expectation did not converge (bipartite non-lazy oscillation?)", ErrInput)
}

// ExpectedHitTime computes E[Hit(target)] for COBRA from starts exactly
// as Σ_{T≥0} P(Hit > T), truncating at tol.
func ExpectedHitTime(g *graph.Graph, cfg Config, starts []int, target int, tol float64) (float64, error) {
	if err := validate(cfg); err != nil {
		return 0, err
	}
	if err := checkGraph(g); err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := g.N()
	var startMask uint32
	for _, v := range starts {
		if v < 0 || v >= n {
			return 0, fmt.Errorf("%w: start %d", ErrInput, v)
		}
		startMask |= 1 << uint(v)
	}
	if startMask == 0 {
		return 0, fmt.Errorf("%w: empty start set", ErrInput)
	}
	if target < 0 || target >= n {
		return 0, fmt.Errorf("%w: target %d", ErrInput, target)
	}
	targetBit := uint32(1) << uint(target)
	if startMask&targetBit != 0 {
		return 0, nil
	}
	size := 1 << uint(n)
	dist := make([]float64, size)
	dist[startMask] = 1
	next := make([]float64, size)
	outcomes := make([]map[uint32]float64, n)
	for v := 0; v < n; v++ {
		outcomes[v] = outcomeDist(g, cfg, v)
	}
	scratch := make(map[uint32]float64, size)
	var expect float64
	maxRounds := 1 << 20
	for t := 0; t < maxRounds; t++ {
		var surv float64
		for _, p := range dist {
			surv += p
		}
		if surv < tol {
			return expect, nil
		}
		expect += surv
		for i := range next {
			next[i] = 0
		}
		for mask := 1; mask < size; mask++ {
			p := dist[mask]
			if p == 0 {
				continue
			}
			for k := range scratch {
				delete(scratch, k)
			}
			scratch[0] = p
			m := uint32(mask)
			for m != 0 {
				v := trailingZeros(m)
				m &^= 1 << uint(v)
				conv := make(map[uint32]float64, len(scratch)*2)
				for acc, pw := range scratch {
					for om, op := range outcomes[v] {
						conv[acc|om] += pw * op
					}
				}
				for k := range scratch {
					delete(scratch, k)
				}
				for k, v2 := range conv {
					scratch[k] = v2
				}
			}
			for nm, np := range scratch {
				if nm&targetBit != 0 {
					continue
				}
				next[nm] += np
			}
		}
		dist, next = next, dist
	}
	if expect > float64(maxRounds)/2 {
		return expect, fmt.Errorf("%w: hit-time expectation did not converge", ErrInput)
	}
	return expect, nil
}
