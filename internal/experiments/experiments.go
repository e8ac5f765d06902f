// Package experiments implements the reproduction harness: one function
// per experiment in the All registry (E1–E16 plus ablations), each
// regenerating a table that checks the *shape* of a theorem, lemma or
// worked example from the paper. The paper itself contains no empirical
// tables or figures — it is a theory paper — so these experiments are the
// executable counterparts of its stated bounds.
//
// Every experiment is a pure function of (code, Params.Seed): trials run
// through sim.Runner with per-trial deterministic streams.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/bounds"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/spectral"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/xrand"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick runs reduced sizes/trials, for tests and benchmarks.
	Quick Scale = iota
	// Full runs the sizes reported in EXPERIMENTS.md.
	Full
)

// String returns the scale's command-line spelling, "quick" or "full".
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Params configures an experiment run.
type Params struct {
	// Seed is the master seed; every randomised choice derives from it.
	Seed uint64
	// Scale selects Quick or Full sizing.
	Scale Scale
	// Workers caps trial parallelism (<= 0: GOMAXPROCS).
	Workers int
}

func (p Params) runner() sim.Runner {
	return sim.Runner{Seed: p.Seed, Workers: p.Workers}
}

// sweepTrialWorkers is the trial workers per cell worker for
// sweep-backed experiments (E6, E16): those already run CellWorkers =
// GOMAXPROCS, and a sweep computes on CellWorkers × Workers goroutines,
// so Workers stays 1 unless the caller explicitly asked for trial
// workers — CellWorkers x GOMAXPROCS CPU-bound goroutines would
// oversubscribe every core for zero result difference.
func sweepTrialWorkers(p Params) int {
	if p.Workers > 0 {
		return p.Workers
	}
	return 1
}

// pick returns q at Quick scale and f at Full scale.
func pick[T any](p Params, q, f T) T {
	if p.Scale == Full {
		return f
	}
	return q
}

// Experiment pairs an identifier with its generator for the registry.
type Experiment struct {
	ID   string
	Name string
	Run  func(Params) (*sim.Table, error)
}

// All returns the full experiment registry, the experiment index: E1–E16
// in paper order, then the ablations.
func All() []Experiment {
	return []Experiment{
		{"E1", "Theorem 1.1 — general graphs: cover = O(m + dmax^2 log n)", E1GeneralGraphs},
		{"E2", "Theorem 1.2 — regular graphs: cover = O((r/(1-l)+r^2) log n)", E2RegularGraphs},
		{"E3", "Hypercube example — log^8 vs log^4 vs log^3 bounds vs measured", E3Hypercube},
		{"E4", "Theorem 1.3 — COBRA/BIPS duality (pathwise + Monte Carlo)", E4Duality},
		{"E5", "Theorems 1.4/1.5 — BIPS infection time obeys the same bounds", E5BIPS},
		{"E6", "Section 6 — fractional branching b = 1+rho costs <= 1/rho^2", E6Fractional},
		{"E7", "Intro (i)/(ii) — complete graphs and expanders cover in O(log n)", E7Expanders},
		{"E8", "Grids — cover ~ n^(1/D), and the max{log2 n, Diam} lower bound", E8Grids},
		{"E9", "Lemma 4.1 — per-round BIPS growth >= |A|(1+(1-l^2)(1-|A|/n))", E9Growth},
		{"E10", "Eq. (18) — serialised step expectations E(Y_l|past) >= 1/2", E10Martingale},
		{"E11", "Corollary 5.2 — candidate sets |C_t| >= |A|(1-l)/2", E11Candidates},
		{"E12", "Baselines — COBRA vs random walk vs multi-walk vs push", E12Baselines},
		{"E13", "Conclusions — scan for cover/(n log n) growth (conjecture check)", E13Conjecture},
		{"E14", "W.h.p. concentration — cover-time tail quantiles vs mean", E14Concentration},
		{"E15", "Scale-free BA graphs — heavy-tail dmax^2 stress for Theorem 1.1", E15ScaleFree},
		{"E16", "Watts–Strogatz gap sweep — cover across the small-world transition", E16SmallWorld},
		{"A1", "Ablation — with vs without replacement neighbour sampling", AblationReplacement},
		{"A2", "Ablation — lazy overhead on non-bipartite graphs", AblationLazy},
	}
}

// Report runs the experiments of All in registry order, skipping those
// keep rejects (nil keeps every one), and writes the report
// cmd/experiments prints: a heading with the seed and scale, then per
// experiment its title line, its table and a blank line. done, when not
// nil, is called between the table and the blank line with the
// experiment's wall time; everything else Report writes is a function
// of p alone (testdata/quick-seed1.txt pins it at Quick scale, seed 1).
func Report(w io.Writer, p Params, keep func(id string) bool, done func(id string, took time.Duration)) error {
	fmt.Fprintf(w, "COBRA reproduction experiments (seed=%d scale=%s)\n\n", p.Seed, p.Scale)
	for _, exp := range All() {
		if keep != nil && !keep(exp.ID) {
			continue
		}
		fmt.Fprintf(w, "[%s] %s\n", exp.ID, exp.Name)
		start := time.Now()
		tb, err := exp.Run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		tb.Render(w)
		if done != nil {
			done(exp.ID, time.Since(start))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// wsPool shares engine workspaces across every experiment hot loop: one
// workspace per live worker goroutine, reused across trials, rows and
// experiments (buffers are re-sized when the graph changes). Routing the
// per-trial kernel construction through it removes the per-trial
// allocations the naive CoverTime loop pays, without changing a single
// trajectory (the Workspace reuse contract).
var wsPool = sync.Pool{New: func() any { return engine.NewWorkspace() }}

// coverTrial returns a sim.TrialFunc measuring COBRA cover time from
// vertex 0 on g through a pooled workspace — result-identical to
// core.CoverTime with the same stream.
func coverTrial(g *graph.Graph, cfg core.Config) sim.TrialFunc {
	return func(trial int, rng *xrand.RNG) (float64, error) {
		ws := wsPool.Get().(*engine.Workspace)
		defer wsPool.Put(ws)
		t, err := core.CoverTimeWith(ws, g, cfg, 0, rng)
		return float64(t), err
	}
}

// infectTrial is coverTrial's BIPS counterpart (infection time from
// source 0).
func infectTrial(g *graph.Graph, cfg bips.Config) sim.TrialFunc {
	return func(trial int, rng *xrand.RNG) (float64, error) {
		ws := wsPool.Get().(*engine.Workspace)
		defer wsPool.Put(ws)
		t, err := bips.InfectionTimeWith(ws, g, cfg, 0, rng)
		return float64(t), err
	}
}

// meanCover returns the mean COBRA cover time over trials from vertex 0.
func meanCover(p Params, g *graph.Graph, cfg core.Config, trials int) (float64, error) {
	return p.runner().RunMeans(trials, coverTrial(g, cfg))
}

// generalBound evaluates the Theorem 1.1 shape m + dmax^2 ln n.
func generalBound(g *graph.Graph) float64 { return bounds.General(g) }

// regularBound evaluates the Theorem 1.2 shape (r/gap + r^2) ln n.
// Experiments always call it with gaps in (0, 1], so errors cannot occur;
// fall back to +Inf defensively.
func regularBound(r int, gap float64, n int) float64 {
	v, err := bounds.Regular(n, r, gap)
	if err != nil {
		return math.Inf(1)
	}
	return v
}

// lazyGap returns the lazy-walk eigenvalue gap, the right parameter when
// the process itself is lazy (bipartite families).
func lazyGap(g *graph.Graph) (float64, error) {
	lam, err := spectral.SecondEigenvalueLazy(g, spectral.Options{Tol: 1e-9})
	if err != nil {
		return 0, err
	}
	return 1 - lam, nil
}

// plainGap returns the plain-walk eigenvalue gap 1 − λ.
func plainGap(g *graph.Graph) (float64, error) {
	return spectral.Gap(g, spectral.Options{Tol: 1e-9})
}

// cfgFor returns the b=2 configuration appropriate for g: lazy on
// bipartite graphs (per the remark under Theorem 1.2), plain otherwise.
func cfgFor(g *graph.Graph) core.Config {
	return core.Config{Branch: 2, Lazy: g.IsBipartite()}
}

// fmtRatio renders a ratio with sensible precision.
func fmtRatio(r float64) string { return fmt.Sprintf("%.4f", r) }

// semiLogFit and logLogFit re-export the stats fits with the package's
// short names.
func semiLogFit(xs, ys []float64) (stats.Fit, error) { return stats.SemiLogFit(xs, ys) }
func logLogFit(xs, ys []float64) (stats.Fit, error)  { return stats.LogLogFit(xs, ys) }
