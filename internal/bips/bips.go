// Package bips implements the BIPS process (Biased Infection with
// Persistent Source), the epidemic dual of COBRA introduced in
// [Cooper et al., PODC 2016] and analysed in Sections 3–6 of the paper.
//
// Given a connected graph G, a persistent source v and branching b, the
// infected set evolves as A_0 = {v}, A_{t+1} = Infect(A_t) ∪ {v}, where
// each vertex u independently selects b neighbours uniformly at random
// with replacement and joins Infect(A_t) iff at least one selected
// neighbour is in A_t. The infection time infec(v) is the first round at
// which A_t = V; Theorems 1.4 and 1.5 bound it by O(m + dmax² log n) and
// O((r/(1−λ) + r²) log n) respectively.
//
// The package also implements the paper's key proof device: the
// *serialisation* of a round into per-vertex steps over the candidate set
// C_t = (N(A) ∪ {v}) \ Bfix, exposing the super-martingale increments Y_l
// of Section 3 for direct empirical verification.
//
// The plain round of Process runs on the shared adaptive frontier kernel
// in internal/engine: early rounds evaluate only the candidate
// neighbourhood of the infected set (Θ(vol(A_t)) work), wide rounds fall
// back to the paper's Θ(n·b) scan, and the trajectory is a pure function
// of the master seed (one Uint64 drawn from the supplied RNG), independent
// of the representation.
package bips

import (
	"errors"
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Errors returned by constructors and drivers.
var (
	ErrConfig       = errors.New("bips: invalid configuration")
	ErrDisconnected = errors.New("bips: graph must be connected")
	ErrRoundLimit   = errors.New("bips: round limit exceeded before full infection")
	ErrSource       = errors.New("bips: invalid source vertex")
)

// Config selects the BIPS variant. It is core.Config: the duality
// theorem requires COBRA and BIPS to run the same variant.
type Config = core.Config

// translateEngineErr maps kernel errors onto this package's exported
// error values. Connectivity is checked only inside the kernel (one
// O(n+m) traversal per graph, which the graph memoizes); config and
// source problems are pre-validated by the constructors, so the kernel
// cannot surface them.
func translateEngineErr(err error) error {
	if errors.Is(err, engine.ErrDisconnected) {
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	return err
}

// Process is a single BIPS run on the shared frontier kernel. Not safe for
// concurrent use.
type Process struct {
	g      *graph.Graph
	cfg    Config
	rng    *xrand.RNG // feeds SerialRound's per-step draws only
	source int
	k      *engine.Kernel
}

// New creates a BIPS process with the given persistent source. The plain
// rounds' master seed is one Uint64 drawn from rng at construction; rng
// additionally feeds SerialRound's per-step decisions.
func New(g *graph.Graph, cfg Config, source int, rng *xrand.RNG) (*Process, error) {
	return NewWith(engine.NewWorkspace(), g, cfg, source, rng)
}

// NewWith is New constructing the kernel through ws (see engine.Workspace
// for the reuse contract): the trajectory is identical to New from the
// same (graph, config, source, rng state), with none of the per-trial
// kernel allocations. The previous kernel built through ws becomes
// invalid.
func NewWith(ws *engine.Workspace, g *graph.Graph, cfg Config, source int, rng *xrand.RNG) (*Process, error) {
	if err := engine.ValidateBranching(ErrConfig, cfg.Branch, cfg.Rho); err != nil {
		return nil, err
	}
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("%w: %d", ErrSource, source)
	}
	k, err := engine.NewBipsWith(ws, g, cfg.Params(), source, rng.Uint64())
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return &Process{g: g, cfg: cfg, rng: rng, source: source, k: k}, nil
}

// Round returns the number of completed rounds t.
func (p *Process) Round() int { return p.k.Round() }

// Source returns the persistent source vertex.
func (p *Process) Source() int { return p.source }

// Infected returns the live infected set A_t (read-only).
func (p *Process) Infected() *bitset.Set { return p.k.Frontier() }

// InfectedCount returns |A_t|.
func (p *Process) InfectedCount() int { return p.k.FrontierCount() }

// Complete reports whether A_t = V.
func (p *Process) Complete() bool { return p.k.Complete() }

// Step advances the process one round using the plain (parallel-decision)
// dynamics. Unlike COBRA's informed set, |A_t| may shrink: vertices other
// than the source refresh their state every round.
func (p *Process) Step() { p.k.Step() }

// sampleInfected draws u's selections from the process's own RNG and
// reports whether any lies in the current infected set; the sampling path
// of the serialised round decomposition.
func (p *Process) sampleInfected(u int) bool {
	b := p.cfg.Branch
	if p.cfg.Rho > 0 && p.rng.Bernoulli(p.cfg.Rho) {
		b++
	}
	deg := p.g.Degree(u)
	cur := p.k.Frontier()
	for k := 0; k < b; k++ {
		var pick int
		if p.cfg.Lazy && p.rng.Bool() {
			pick = u
		} else {
			pick = p.g.Neighbor(u, p.rng.Intn(deg))
		}
		if cur.Contains(pick) {
			return true
		}
	}
	return false
}

// Run advances until full infection and returns infec(source), or
// ErrRoundLimit at the cap.
func (p *Process) Run() (int, error) {
	err := p.k.RunCapped(p.cfg.RoundLimit(p.g.N()), ErrRoundLimit)
	return p.Round(), err
}

// InfectionTime runs one BIPS trial and returns infec(source).
func InfectionTime(g *graph.Graph, cfg Config, source int, rng *xrand.RNG) (int, error) {
	return InfectionTimeWith(engine.NewWorkspace(), g, cfg, source, rng)
}

// InfectionTimeWith is InfectionTime with the kernel built through ws:
// the same result bit for bit, amortizing allocations across trials (the
// hot-loop form for repeated trials on shared graphs).
func InfectionTimeWith(ws *engine.Workspace, g *graph.Graph, cfg Config, source int, rng *xrand.RNG) (int, error) {
	p, err := NewWith(ws, g, cfg, source, rng)
	if err != nil {
		return 0, err
	}
	return p.Run()
}

// RoundTrace records per-round infected-set sizes of one run.
type RoundTrace struct {
	// InfectedSize[t] is |A_t| (index 0 is 1, the source alone).
	InfectedSize []int
	// CandidateSize[t] is |C_t| for rounds t >= 1 (index 0 unused, 0);
	// the candidate set of Section 3, needed for Corollary 5.2 checks.
	CandidateSize []int
	// CompleteRound is the first round with A_t = V (-1 if capped).
	CompleteRound int
}

// Trace runs one BIPS trial recording |A_t| and |C_t| each round.
func Trace(g *graph.Graph, cfg Config, source int, rng *xrand.RNG) (*RoundTrace, error) {
	p, err := New(g, cfg, source, rng)
	if err != nil {
		return nil, err
	}
	tr := &RoundTrace{CompleteRound: -1}
	tr.InfectedSize = append(tr.InfectedSize, 1)
	tr.CandidateSize = append(tr.CandidateSize, 0)
	limit := cfg.RoundLimit(g.N())
	for !p.Complete() && p.Round() < limit {
		tr.CandidateSize = append(tr.CandidateSize, candidateCount(g, p.Infected(), p.source))
		p.Step()
		tr.InfectedSize = append(tr.InfectedSize, p.InfectedCount())
	}
	if p.Complete() {
		tr.CompleteRound = p.Round()
	}
	return tr, nil
}

// candidateCount computes |C| = |(N(A) ∪ {v}) \ Bfix| for the round about
// to be taken from infected set A.
func candidateCount(g *graph.Graph, a *bitset.Set, source int) int {
	n := g.N()
	count := 0
	for u := 0; u < n; u++ {
		if inCandidates(g, a, source, u) {
			count++
		}
	}
	return count
}

// inCandidates reports whether u ∈ C = (N(A) ∪ {v}) \ Bfix, where
// Bfix = {u : N(u) ⊆ A}.
func inCandidates(g *graph.Graph, a *bitset.Set, source, u int) bool {
	dA := 0
	deg := g.Degree(u)
	for _, w := range g.Neighbors(u) {
		if a.Contains(int(w)) {
			dA++
		}
	}
	if dA == deg { // u ∈ Bfix
		return false
	}
	return dA > 0 || u == source
}
