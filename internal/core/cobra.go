// Package core implements the COBRA (COalescing-BRAnching random walk)
// process — the subject of the paper — together with its variants:
// integer branching factors b >= 1, the fractional branching b = 1 + ρ of
// Section 6, and the lazy variant used for bipartite graphs (remark under
// Theorem 1.2).
//
// One COBRA round (paper, Section 1): every vertex of the current set C_t
// independently chooses b neighbours uniformly at random WITH REPLACEMENT;
// the chosen vertices form C_{t+1}. Multiple arrivals at a vertex coalesce
// — the set semantics make coalescing implicit. The cover time is the
// number of rounds until the union of all C_t equals V.
//
// Process delegates its round loop to the shared adaptive frontier kernel
// in internal/engine: the trajectory of a run is a pure function of its
// master seed (one Uint64 drawn from the supplied RNG), independent of the
// sparse/dense representation the kernel picks per round.
package core

import (
	"errors"
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Errors returned by the process constructors and drivers.
var (
	ErrConfig       = errors.New("cobra: invalid configuration")
	ErrDisconnected = errors.New("cobra: graph must be connected")
	ErrRoundLimit   = errors.New("cobra: round limit exceeded before cover")
	ErrStart        = errors.New("cobra: invalid start set")
)

// Config selects the COBRA variant.
type Config struct {
	// Branch is the integer branching factor b >= 1. Branch == 1 with
	// Rho == 0 is the simple random walk; the paper's main case is 2.
	Branch int
	// Rho adds fractional branching: each particle sends to one extra
	// neighbour with probability Rho, so the expected branching factor is
	// Branch + Rho. Section 6 studies Branch = 1, Rho = ρ ∈ (0, 1].
	// Must lie in [0, 1].
	Rho float64
	// Lazy makes every neighbour selection pick the current vertex itself
	// with probability 1/2 (the paper's lazy variant, which restores a
	// positive eigenvalue gap on bipartite graphs).
	Lazy bool
	// MaxRounds caps a single run; 0 means the driver default of
	// 64·n·log2(n)+64 rounds, far above every bound proven in the paper,
	// so hitting the cap signals a stuck process (e.g. non-lazy COBRA on a
	// bipartite graph with an unlucky parity) rather than slow covering.
	MaxRounds int
}

// DefaultConfig is the paper's primary setting: b = 2, non-lazy.
func DefaultConfig() Config { return Config{Branch: 2} }

// EffectiveBranch returns the expected branching factor Branch + Rho.
func (c Config) EffectiveBranch() float64 { return float64(c.Branch) + c.Rho }

// Validate checks the configuration.
func (c Config) Validate() error {
	return engine.ValidateBranching(ErrConfig, c.Branch, c.Rho)
}

func (c Config) maxRounds(n int) int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return engine.DefaultMaxRounds(n)
}

// engineParams maps the configuration onto the shared kernel.
func (c Config) engineParams() engine.Params {
	return engine.Params{Branch: c.Branch, Rho: c.Rho, Lazy: c.Lazy}
}

// translateEngineErr maps kernel errors onto this package's exported
// error values. Connectivity is checked only inside the kernel (one
// O(n+m) traversal per graph, which the graph memoizes); config and
// start-set problems are pre-validated by the constructors, so the kernel
// cannot surface them.
func translateEngineErr(err error) error {
	if errors.Is(err, engine.ErrDisconnected) {
		return fmt.Errorf("%w: %v", ErrDisconnected, err)
	}
	return err
}

// Process is a single COBRA run on the shared frontier kernel. It is not
// safe for concurrent use; run one Process per goroutine (see internal/sim
// for the parallel trial harness).
type Process struct {
	g   *graph.Graph
	cfg Config
	k   *engine.Kernel
}

// New creates a COBRA process on g starting from the given set of vertices
// (C_0 = start). The graph must be connected and start non-empty. The
// kernel's master seed is one Uint64 drawn from rng, so the whole
// trajectory is a pure function of the rng's state at this call.
func New(g *graph.Graph, cfg Config, start []int, rng *xrand.RNG) (*Process, error) {
	return NewWith(engine.NewWorkspace(), g, cfg, start, rng)
}

// NewWith is New constructing the kernel through ws (see engine.Workspace
// for the reuse contract): the trajectory is identical to New from the
// same (graph, config, start, rng state), with none of the per-trial
// kernel allocations. The previous kernel built through ws becomes
// invalid.
func NewWith(ws *engine.Workspace, g *graph.Graph, cfg Config, start []int, rng *xrand.RNG) (*Process, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(start) == 0 {
		return nil, fmt.Errorf("%w: empty C_0", ErrStart)
	}
	for _, v := range start {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("%w: vertex %d out of range", ErrStart, v)
		}
	}
	k, err := engine.NewCobraWith(ws, g, cfg.engineParams(), start, rng.Uint64())
	if err != nil {
		return nil, translateEngineErr(err)
	}
	return &Process{g: g, cfg: cfg, k: k}, nil
}

// Round returns the number of completed rounds t.
func (p *Process) Round() int { return p.k.Round() }

// Current returns the current set C_t. The returned set is live; do not
// modify it.
func (p *Process) Current() *bitset.Set { return p.k.Frontier() }

// Covered returns the cumulative visited set ∪ C_0..C_t (live; read-only).
func (p *Process) Covered() *bitset.Set { return p.k.Covered() }

// CoveredCount returns |∪ C_0..C_t| without a popcount scan.
func (p *Process) CoveredCount() int { return p.k.CoveredCount() }

// Complete reports whether every vertex has been visited.
func (p *Process) Complete() bool { return p.k.Complete() }

// Transmissions returns the total number of messages (particle moves) sent
// so far; the paper's motivation is bounding these per vertex per round.
func (p *Process) Transmissions() int64 { return p.k.Sent() }

// Coalesced returns the total number of particle coalescences so far:
// arrivals that landed on a vertex already receiving a particle in the
// same round (the "CO" in COBRA). It always equals
// Transmissions() − Σ_{t>=1} |C_t|.
func (p *Process) Coalesced() int64 { return p.k.Coalesced() }

// Step advances the process by one round: every vertex of C_t pushes to b
// random neighbours (with replacement), forming C_{t+1}.
func (p *Process) Step() { p.k.Step() }

// Run advances the process until cover or the round cap and returns the
// number of rounds to cover. If the cap is hit it returns the cap and
// ErrRoundLimit.
func (p *Process) Run() (int, error) {
	limit := p.cfg.maxRounds(p.g.N())
	for !p.Complete() {
		if p.Round() >= limit {
			return p.Round(), fmt.Errorf("%w: %d rounds on %s", ErrRoundLimit, p.Round(), p.g.Name())
		}
		p.Step()
	}
	return p.Round(), nil
}

// RunUntilHit advances until target is visited (or the cap) and returns
// the hitting round Hit(target).
func (p *Process) RunUntilHit(target int) (int, error) {
	if target < 0 || target >= p.g.N() {
		return 0, fmt.Errorf("%w: target %d out of range", ErrStart, target)
	}
	limit := p.cfg.maxRounds(p.g.N())
	for !p.Covered().Contains(target) {
		if p.Round() >= limit {
			return p.Round(), fmt.Errorf("%w: %d rounds on %s", ErrRoundLimit, p.Round(), p.g.Name())
		}
		p.Step()
	}
	return p.Round(), nil
}
