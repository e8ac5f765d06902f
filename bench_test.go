package cobra

// Benchmark harness: one testing.B benchmark for each of E1–E14 and the
// two ablations of the internal/experiments registry (experiments.All).
// Each benchmark regenerates its experiment table at Quick scale per
// iteration, so `go test -bench .` exercises the full reproduction
// pipeline; `cmd/experiments -scale full` produces the EXPERIMENTS.md
// numbers. Micro-benchmarks for the hot simulation loops follow at the
// bottom.

import (
	"sync"
	"testing"

	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/experiments"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/xrand"
)

func benchExperiment(b *testing.B, run func(experiments.Params) (*sim.Table, error)) {
	b.Helper()
	p := experiments.Params{Seed: 1, Scale: experiments.Quick}
	for i := 0; i < b.N; i++ {
		tb, err := run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkE1GeneralGraphs(b *testing.B) { benchExperiment(b, experiments.E1GeneralGraphs) }
func BenchmarkE2RegularGraphs(b *testing.B) { benchExperiment(b, experiments.E2RegularGraphs) }
func BenchmarkE3Hypercube(b *testing.B)     { benchExperiment(b, experiments.E3Hypercube) }
func BenchmarkE4Duality(b *testing.B)       { benchExperiment(b, experiments.E4Duality) }
func BenchmarkE5BIPS(b *testing.B)          { benchExperiment(b, experiments.E5BIPS) }
func BenchmarkE6Fractional(b *testing.B)    { benchExperiment(b, experiments.E6Fractional) }
func BenchmarkE7Expanders(b *testing.B)     { benchExperiment(b, experiments.E7Expanders) }
func BenchmarkE8Grids(b *testing.B)         { benchExperiment(b, experiments.E8Grids) }
func BenchmarkE9Growth(b *testing.B)        { benchExperiment(b, experiments.E9Growth) }
func BenchmarkE10Martingale(b *testing.B)   { benchExperiment(b, experiments.E10Martingale) }
func BenchmarkE11Candidates(b *testing.B)   { benchExperiment(b, experiments.E11Candidates) }
func BenchmarkE12Baselines(b *testing.B)    { benchExperiment(b, experiments.E12Baselines) }
func BenchmarkE13Conjecture(b *testing.B)   { benchExperiment(b, experiments.E13Conjecture) }
func BenchmarkAblationReplacement(b *testing.B) {
	benchExperiment(b, experiments.AblationReplacement)
}
func BenchmarkAblationLazy(b *testing.B) { benchExperiment(b, experiments.AblationLazy) }

// --- Hot-loop micro-benchmarks ---

// BenchmarkCOBRARound measures one fully-active COBRA round (the
// worst-case per-round cost: every vertex pushes twice).
func BenchmarkCOBRARound(b *testing.B) {
	g := graph.Hypercube(12) // n = 4096, r = 12
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	p, err := core.New(g, core.Config{Branch: 2, Lazy: true}, all, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkBIPSRound measures one BIPS round (every vertex samples twice
// regardless of infection state — the paper's process is Θ(n·b) per
// round by construction).
func BenchmarkBIPSRound(b *testing.B) {
	g := graph.Hypercube(12)
	p, err := bips.New(g, bips.Config{Branch: 2, Lazy: true}, 0, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// BenchmarkCoverExpander measures an end-to-end COBRA cover on a random
// cubic expander (the Theorem 1.2 best case).
func BenchmarkCoverExpander(b *testing.B) {
	g, err := graph.RandomRegular(1024, 3, xrand.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.CoverTime(g, core.Config{Branch: 2}, 0, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInfectionExpander measures an end-to-end BIPS infection on the
// same family (Theorem 1.5 best case).
func BenchmarkInfectionExpander(b *testing.B) {
	g, err := graph.RandomRegular(1024, 3, xrand.New(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bips.InfectionTime(g, bips.Config{Branch: 2}, 0, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialisedBIPSRound measures the serialised (per-step) round
// engine used by the martingale experiments, to quantify its overhead
// over the plain round.
func BenchmarkSerialisedBIPSRound(b *testing.B) {
	g := graph.Complete(512)
	p, err := bips.New(g, bips.Config{Branch: 2}, 0, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SerialRound(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE14Concentration(b *testing.B) { benchExperiment(b, experiments.E14Concentration) }

// --- Adaptive frontier-engine micro-benchmarks ---
//
// Sparse vs dense vs adaptive rounds on ≥10^5-vertex workloads across the
// families the engine targets: a random 8-regular expander (the paper's
// regime), a ring-lattice circulant, a 2-d grid, and the two scale-free
// generators. These measure the representation crossover the Adaptive
// mode is built on (see internal/engine): wide frontiers should favour
// the dense word scan, near-empty frontiers the sparse slice.

var (
	engineBenchOnce   sync.Once
	engineBenchGraphs map[string]*graph.Graph
)

func engineBenchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	engineBenchOnce.Do(func() {
		rreg, err := graph.RandomRegular(200_000, 8, xrand.New(4))
		if err != nil {
			panic(err)
		}
		ba, err := graph.BarabasiAlbert(200_000, 3, xrand.New(1))
		if err != nil {
			panic(err)
		}
		ws, err := graph.WattsStrogatz(200_000, 6, 0.1, xrand.New(2))
		if err != nil {
			panic(err)
		}
		engineBenchGraphs = map[string]*graph.Graph{
			"rreg":      rreg,
			"circulant": graph.Chord(200_000, 4), // C_n(1..4): diameter ≈ n/8
			"grid":      graph.Grid(450, 450),    // n = 202500
			"ba":        ba,
			"ws":        ws,
		}
	})
	return engineBenchGraphs[name]
}

var engineBenchModes = []struct {
	name string
	mode engine.Mode
}{
	{"sparse", engine.ForceSparse},
	{"dense", engine.ForceDense},
	{"adaptive", engine.Adaptive},
}

// BenchmarkEngineCobraWide measures one fully-active COBRA round — the
// wide-frontier regime where the dense word scan should win.
func BenchmarkEngineCobraWide(b *testing.B) {
	for _, gname := range []string{"rreg", "circulant", "grid", "ba", "ws"} {
		g := engineBenchGraph(b, gname)
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		for _, m := range engineBenchModes {
			b.Run(gname+"/"+m.name, func(b *testing.B) {
				k, err := engine.NewCobra(g, engine.Params{Branch: 2, Mode: m.mode}, all, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
				}
			})
		}
	}
}

// BenchmarkEngineCobraNarrow measures the b = 1 single-particle round —
// the narrow-frontier regime where the sparse slice avoids every Θ(n)
// touch and the dense scan pays the full word sweep for one vertex.
func BenchmarkEngineCobraNarrow(b *testing.B) {
	g := engineBenchGraph(b, "circulant")
	for _, m := range engineBenchModes {
		b.Run("circulant/"+m.name, func(b *testing.B) {
			k, err := engine.NewCobra(g, engine.Params{Branch: 1, Mode: m.mode}, []int{0}, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Step()
			}
		})
	}
}

// BenchmarkEngineBipsWide measures one BIPS round from a fully-infected
// frontier: the sparse path must mark the whole edge set to build its
// candidate set, while the dense path is the paper's flat Θ(n·b) scan —
// the regime motivating the adaptive switch.
func BenchmarkEngineBipsWide(b *testing.B) {
	for _, gname := range []string{"rreg", "circulant", "ws"} {
		g := engineBenchGraph(b, gname)
		all := make([]int, g.N())
		for i := range all {
			all[i] = i
		}
		for _, m := range engineBenchModes {
			b.Run(gname+"/"+m.name, func(b *testing.B) {
				k, err := engine.NewBips(g, engine.Params{Branch: 2, Mode: m.mode}, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				k.InstallFrontier(all)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Step()
				}
			})
		}
	}
}

var (
	engineWideOnce  sync.Once
	engineWideGraph *graph.Graph
)

// engineWide returns the 2·10^7-vertex circulant both wide dense round
// benchmarks share, built once.
func engineWide() *graph.Graph {
	engineWideOnce.Do(func() {
		engineWideGraph = graph.Chord(20_000_000, 4)
	})
	return engineWideGraph
}

// BenchmarkEngineWideDenseRound measures one wide COBRA round on a
// 2·10^7-vertex circulant through a workspace. CI tracks it per commit
// and asserts 0 allocs/op: steady-state dense rounds must not allocate
// even at this size.
func BenchmarkEngineWideDenseRound(b *testing.B) {
	g := engineWide()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	ws := engine.NewWorkspace()
	k, err := engine.NewCobraWith(ws, g, engine.Params{Branch: 2, Mode: engine.ForceDense}, all, 1)
	if err != nil {
		b.Fatal(err)
	}
	k.Step() // settle the frontier
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step()
	}
}

// BenchmarkEngineWideDenseBipsRound is BenchmarkEngineWideDenseRound's
// BIPS twin: one dense BIPS round on the same 2·10^7-vertex circulant
// through a workspace, from a frontier of every other vertex (reinstalled
// outside the timer, so each round starts from it), where a vertex's first
// pull hits with probability 1/2. CI tracks it per commit and asserts
// 0 allocs/op.
func BenchmarkEngineWideDenseBipsRound(b *testing.B) {
	g := engineWide()
	half := make([]int, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		half = append(half, v)
	}
	ws := engine.NewWorkspace()
	k, err := engine.NewBipsWith(ws, g, engine.Params{Branch: 2, Mode: engine.ForceDense}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	k.InstallFrontier(half) // grows the member slice before the timer runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k.InstallFrontier(half)
		b.StartTimer()
		k.Step()
	}
}

// BenchmarkEngineCoverAdaptive runs a full COBRA cover on the random
// 8-regular expander in each mode; a cover passes through both regimes
// (about 28 rounds here). Adaptive need not win: in BENCH_baseline.json,
// measured on the circulant, it took 111 s against 99 s for forced dense.
func BenchmarkEngineCoverAdaptive(b *testing.B) {
	g := engineBenchGraph(b, "rreg")
	for _, m := range engineBenchModes {
		b.Run("rreg/"+m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k, err := engine.NewCobra(g, engine.Params{Branch: 2, Mode: m.mode}, []int{0}, uint64(i))
				if err != nil {
					b.Fatal(err)
				}
				for !k.Complete() {
					k.Step()
				}
			}
		})
	}
}

// BenchmarkEngineDraws measures one dense round on RandomRegular(2^18, 3),
// the paper-sweep expander, through a workspace, from a fixed frontier of
// every other vertex (reinstalled outside the timer). The round's cost is
// the per-vertex draws: b pushes per COBRA frontier vertex, up to b pulls
// per BIPS vertex. The plain configurations (b = 1, 2, 3) take their
// first three draws in closed form; b = 2 with ρ = 0.5 and b = 2 lazy
// build each vertex's generator. Every row must report 0 allocs/op.
func BenchmarkEngineDraws(b *testing.B) {
	g, err := graph.RandomRegular(1<<18, 3, xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	half := make([]int, 0, g.N()/2)
	for v := 0; v < g.N(); v += 2 {
		half = append(half, v)
	}
	configs := []struct {
		name string
		par  engine.Params
	}{
		{"b=1", engine.Params{Branch: 1}},
		{"b=2", engine.Params{Branch: 2}},
		{"b=3", engine.Params{Branch: 3}},
		{"b=2,rho=0.5", engine.Params{Branch: 2, Rho: 0.5}},
		{"b=2,lazy", engine.Params{Branch: 2, Lazy: true}},
	}
	for _, kind := range []string{"cobra", "bips"} {
		for _, c := range configs {
			b.Run(kind+"/"+c.name, func(b *testing.B) {
				par := c.par
				par.Mode = engine.ForceDense
				ws := engine.NewWorkspace()
				var k *engine.Kernel
				var err error
				if kind == "cobra" {
					k, err = engine.NewCobraWith(ws, g, par, []int{0}, 1)
				} else {
					k, err = engine.NewBipsWith(ws, g, par, 0, 1)
				}
				if err != nil {
					b.Fatal(err)
				}
				k.InstallFrontier(half) // grows the member slice before the timer runs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					k.InstallFrontier(half)
					b.StartTimer()
					k.Step()
				}
			})
		}
	}
}
