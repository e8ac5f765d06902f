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
// Each process has one chain: cobraChain and bipsChain hold a subset
// distribution and advance it one round per step, and the two entry
// points of each kind run the same setup and step. Every sum is taken in
// a fixed order (no map is ranged over), so a call returns the same bits
// on every run, and products that feed a sum are rounded explicitly,
// float64(x*y) + z, so no target fuses them (see package stats).
//
// Complexity is O(poly · 2ⁿ) per round (see the per-function notes), so
// the package enforces n <= MaxN.
package exact

import (
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
)

// MaxN caps the subset state space at 2^MaxN.
const MaxN = 14

// maxRounds caps the rounds an expectation sums before it gives up.
const maxRounds = 1 << 20

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

// check is every entry point's argument check: the variant, the graph
// size and the one named vertex v.
func check(g *graph.Graph, cfg Config, what string, v int) error {
	if err := validate(cfg); err != nil {
		return err
	}
	if g.N() > MaxN {
		return fmt.Errorf("%w: n = %d exceeds MaxN = %d", ErrInput, g.N(), MaxN)
	}
	if v < 0 || v >= g.N() {
		return fmt.Errorf("%w: %s %d", ErrInput, what, v)
	}
	return nil
}

// vertexMask returns the bitmask of the non-empty vertex set vs.
func vertexMask(g *graph.Graph, what string, vs []int) (uint32, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("%w: empty %s", ErrInput, what)
	}
	var m uint32
	for _, v := range vs {
		if v < 0 || v >= g.N() {
			return 0, fmt.Errorf("%w: %s member %d", ErrInput, what, v)
		}
		m |= 1 << uint(v)
	}
	return m, nil
}

// outcome is one set of vertices a vertex's selections can cover in a
// round, with its probability.
type outcome struct {
	mask uint32
	p    float64
}

// outcomeDist returns the distribution of the SET of vertices that u's
// selections cover in one round, ascending by mask. Each selection is
// uniform over u's neighbours, or under Lazy u itself with probability
// 1/2 and each neighbour with 1/(2d). Branch b makes b independent
// selections; Branch 1 with Rho makes one, plus a second with
// probability Rho.
func outcomeDist(g *graph.Graph, cfg Config, u int) []outcome {
	targets := g.Neighbors(u)
	pick := 1 / float64(len(targets))
	self := 0.0
	if cfg.Lazy {
		pick, self = pick/2, 0.5
	}
	dist := make(map[uint32]float64)
	// add adds w times the distribution of `picks` more selections on
	// top of the covered set acc.
	var add func(picks int, acc uint32, w float64)
	add = func(picks int, acc uint32, w float64) {
		if picks == 0 {
			dist[acc] += w
			return
		}
		if self > 0 {
			add(picks-1, acc|1<<uint(u), float64(w*self))
		}
		for _, t := range targets {
			add(picks-1, acc|1<<uint(t), float64(w*pick))
		}
	}
	if cfg.Rho == 0 {
		add(cfg.Branch, 0, 1)
	} else {
		add(1, 0, 1-cfg.Rho)
		add(2, 0, cfg.Rho)
	}
	out := make([]outcome, 0, len(dist))
	for _, m := range slices.Sorted(maps.Keys(dist)) {
		out = append(out, outcome{m, dist[m]})
	}
	return out
}

// cobraChain evolves the distribution of COBRA's active set C_t over
// the subsets of V, dropping the mass of every set that contains the
// target (absorbed into "hit"), so its total mass is P(Hit(target) > t).
type cobraChain struct {
	dist, next []float64 // over active sets that have not hit target
	target     uint32
	outcomes   [][]outcome // per vertex, ascending by mask
	// acc and conv are dense convolution accumulators, all zero between
	// uses; keys and touched list the masks they hold in first-touch
	// order. A product that underflows to 0 can list a mask twice; the
	// second entry then carries no mass.
	acc, conv     []float64
	keys, touched []uint32
}

// newCobra checks COBRA's arguments and returns the chain at C₀ =
// starts. A target in starts is hit at round 0, so the chain holds no
// mass.
func newCobra(g *graph.Graph, cfg Config, starts []int, target int) (*cobraChain, error) {
	if err := check(g, cfg, "target", target); err != nil {
		return nil, err
	}
	start, err := vertexMask(g, "start set", starts)
	if err != nil {
		return nil, err
	}
	n := g.N()
	size := 1 << uint(n)
	c := &cobraChain{
		dist: make([]float64, size), next: make([]float64, size),
		acc: make([]float64, size), conv: make([]float64, size),
		target: 1 << uint(target), outcomes: make([][]outcome, n),
	}
	if start&c.target == 0 {
		c.dist[start] = 1
	}
	for v := range c.outcomes {
		c.outcomes[v] = outcomeDist(g, cfg, v)
	}
	return c, nil
}

// step advances the chain one round: each active set's mass moves to
// the union of its members' independent outcome sets, convolved member
// by member in ascending vertex order. Every sum runs in a fixed order.
func (c *cobraChain) step() {
	clear(c.next)
	for set, p := range c.dist {
		if p == 0 {
			continue
		}
		c.keys = append(c.keys[:0], 0)
		c.acc[0] = p
		for m := uint32(set); m != 0; m &= m - 1 {
			out := c.outcomes[bits.TrailingZeros32(m)]
			for _, k := range c.keys {
				pk := c.acc[k]
				c.acc[k] = 0
				for _, o := range out {
					u := k | o.mask
					if u&c.target != 0 {
						continue // hit: every later union holds target too
					}
					if c.conv[u] == 0 {
						c.touched = append(c.touched, u)
					}
					c.conv[u] += float64(pk * o.p)
				}
			}
			c.acc, c.conv = c.conv, c.acc
			c.keys, c.touched = c.touched, c.keys[:0]
		}
		for _, k := range c.keys {
			c.next[k] += c.acc[k]
			c.acc[k] = 0
		}
	}
	c.dist, c.next = c.next, c.dist
}

// survival returns the chain's mass, P(Hit(target) > t).
func (c *cobraChain) survival() float64 {
	var s float64
	for _, p := range c.dist {
		s += p
	}
	return s
}

// CobraHitProbability computes P̂(Hit(target) > T | C₀ = starts) exactly:
// the probability that COBRA started from the set `starts` has not
// visited target within T rounds.
//
// Cost: O(T · 2ⁿ · Σ_v d(v)²) in the worst case.
func CobraHitProbability(g *graph.Graph, cfg Config, starts []int, target, T int) (float64, error) {
	c, err := newCobra(g, cfg, starts, target)
	if err != nil {
		return 0, err
	}
	if T < 0 {
		return 0, fmt.Errorf("%w: negative T", ErrInput)
	}
	for t := 0; t < T; t++ {
		c.step()
	}
	return c.survival(), nil
}

// ExpectedHitTime computes E[Hit(target)] for COBRA from starts exactly
// as Σ_{T≥0} P(Hit > T), truncating when the term falls below tol
// (default 1e-12 when tol <= 0).
func ExpectedHitTime(g *graph.Graph, cfg Config, starts []int, target int, tol float64) (float64, error) {
	c, err := newCobra(g, cfg, starts, target)
	if err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-12
	}
	var expect float64
	for t := 0; t < maxRounds; t++ {
		surv := c.survival()
		if surv < tol {
			return expect, nil
		}
		expect += surv
		c.step()
	}
	if expect > float64(maxRounds)/2 {
		return expect, fmt.Errorf("%w: hit-time expectation did not converge", ErrInput)
	}
	return expect, nil
}

// bipsChain evolves the distribution of BIPS's infected set A_t over the
// subsets of V, from A₀ = {source}.
type bipsChain struct {
	g                      *graph.Graph
	cfg                    Config
	source                 int
	dist, next, buf0, buf1 []float64
	probs                  []float64 // per vertex, P(in A_{t+1} | A_t)
}

// newBips checks BIPS's arguments and returns the chain at A₀ = {source}.
func newBips(g *graph.Graph, cfg Config, source int) (*bipsChain, error) {
	if err := check(g, cfg, "source", source); err != nil {
		return nil, err
	}
	size := 1 << uint(g.N())
	b := &bipsChain{
		g: g, cfg: cfg, source: source,
		dist: make([]float64, size), next: make([]float64, size),
		buf0: make([]float64, size), buf1: make([]float64, size),
		probs: make([]float64, g.N()),
	}
	b.dist[1<<uint(source)] = 1
	return b, nil
}

// step evolves the distribution one round. For each current infected
// set A, every vertex u independently belongs to the next set with
// probability p_u(A) (the source with probability 1). The per-state
// expansion is a DP over vertices: O(n · 2ⁿ) per source state.
func (b *bipsChain) step() {
	n := b.g.N()
	buf0, buf1 := b.buf0, b.buf1
	clear(b.next)
	for mask, p := range b.dist {
		if p == 0 {
			continue
		}
		for u := range b.probs {
			b.probs[u] = infectProb(b.g, b.cfg, uint32(mask), u, b.source)
		}
		// DP over vertices: cur holds the distribution over subsets of
		// the first u vertices.
		cur := buf0[:1]
		cur[0] = p
		width := 1
		for u := 0; u < n; u++ {
			nw := width << 1
			out := buf1[:nw]
			pu := b.probs[u]
			for m2 := 0; m2 < width; m2++ {
				w := cur[m2]
				out[m2] = w * (1 - pu)
				out[m2|width] = w * pu
			}
			cur = out
			buf0, buf1 = buf1, buf0
			width = nw
		}
		for m2, q := range cur {
			b.next[m2] += q
		}
	}
	b.dist, b.next = b.next, b.dist
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
		q = float64(0.5*self) + float64(0.5*q)
	}
	switch {
	case cfg.Branch == 3:
		return 1 - float64((1-q)*(1-q)*(1-q))
	case cfg.Branch == 2:
		return 1 - float64((1-q)*(1-q))
	case cfg.Rho == 0:
		return q
	default:
		return 1 - float64((1-q)*(1-float64(cfg.Rho*q)))
	}
}

// BipsMeetComplementProbability computes P(C ∩ A_T = ∅ | A₀ = {source})
// exactly — the right-hand side of Theorem 1.3.
//
// Cost: O(T · n · 4ⁿ) in the worst case (practical for n <= ~12).
func BipsMeetComplementProbability(g *graph.Graph, cfg Config, source int, c []int, T int) (float64, error) {
	b, err := newBips(g, cfg, source)
	if err != nil {
		return 0, err
	}
	cMask, err := vertexMask(g, "C", c)
	if err != nil {
		return 0, err
	}
	if T < 0 {
		return 0, fmt.Errorf("%w: negative T", ErrInput)
	}
	for t := 0; t < T; t++ {
		b.step()
	}
	var miss float64
	for mask, p := range b.dist {
		if uint32(mask)&cMask == 0 {
			miss += p
		}
	}
	return miss, nil
}

// ExpectedInfectionTime computes E[infec(source)] exactly as
// Σ_{t≥0} P(A_t ≠ V), truncating when the residual probability falls
// below tol (default 1e-12 when tol <= 0). Returns an error if the
// expectation has not converged within 2^20 rounds.
func ExpectedInfectionTime(g *graph.Graph, cfg Config, source int, tol float64) (float64, error) {
	b, err := newBips(g, cfg, source)
	if err != nil {
		return 0, err
	}
	if tol <= 0 {
		tol = 1e-12
	}
	full := len(b.dist) - 1
	var expect float64
	for t := 0; t < maxRounds; t++ {
		notFull := 1 - b.dist[full]
		if notFull < tol {
			return expect, nil
		}
		expect += notFull
		// A_t = V is absorbing: every vertex then has all neighbours
		// infected, so p_u = 1 for all u and the recursion keeps that
		// mass at `full` with no special casing.
		b.step()
	}
	return expect, fmt.Errorf("%w: expectation did not converge (bipartite non-lazy oscillation?)", ErrInput)
}
