package core

import (
	"testing"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Cross-engine equivalence: for a fixed master seed, the Process and the
// kernel in all three representation modes must produce bit-identical
// trajectories — the determinism contract of internal/engine.

// cobraEngine is the common face of every COBRA round engine under test.
type cobraEngine interface {
	Step()
	Round() int
	Complete() bool
	CoveredCount() int
	Current() *bitset.Set
}

// kernelFace adapts engine.Kernel's Frontier to the Current of the
// process types.
type kernelFace struct{ *engine.Kernel }

func (k kernelFace) Current() *bitset.Set { return k.Frontier() }

func crossEngines(t *testing.T, g *graph.Graph, cfg Config, start []int, masterSeed uint64) map[string]cobraEngine {
	t.Helper()
	// Process derives its kernel seed as rng.Uint64(); feed the others the
	// same derived value so all trajectories share one master seed.
	kseed := xrand.New(masterSeed).Uint64()
	engines := map[string]cobraEngine{}
	serial, err := New(g, cfg, start, xrand.New(masterSeed))
	if err != nil {
		t.Fatal(err)
	}
	engines["serial"] = serial
	for name, mode := range map[string]engine.Mode{
		"forced-sparse": engine.ForceSparse,
		"forced-dense":  engine.ForceDense,
		"adaptive":      engine.Adaptive,
	} {
		par := cfg.engineParams()
		par.Mode = mode
		k, err := engine.NewCobra(g, par, start, kseed)
		if err != nil {
			t.Fatal(err)
		}
		engines[name] = kernelFace{k}
	}
	return engines
}

func TestCrossEngineEquivalenceCOBRA(t *testing.T) {
	ba, err := graph.BarabasiAlbert(400, 3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := graph.WattsStrogatz(300, 4, 0.1, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Hypercube(7),
		graph.Torus(9, 9),
		graph.Lollipop(12, 24),
		ba,
		ws,
	}
	cfgs := []Config{
		{Branch: 2},
		{Branch: 2, Lazy: true},
		{Branch: 1, Rho: 0.5},
	}
	for gi, g := range graphs {
		for ci, cfg := range cfgs {
			seed := uint64(1000*gi + ci + 1)
			engines := crossEngines(t, g, cfg, []int{0, g.N() / 2}, seed)
			ref := engines["serial"]
			const roundCap = 20000
			for r := 0; r < roundCap && !ref.Complete(); r++ {
				for _, e := range engines {
					e.Step()
				}
				for name, e := range engines {
					if e.CoveredCount() != ref.CoveredCount() {
						t.Fatalf("%s/%+v round %d: %s covered %d != serial %d",
							g.Name(), cfg, r+1, name, e.CoveredCount(), ref.CoveredCount())
					}
					if !e.Current().Equal(ref.Current()) {
						t.Fatalf("%s/%+v round %d: %s frontier diverged from serial",
							g.Name(), cfg, r+1, name)
					}
				}
			}
			if !ref.Complete() {
				t.Fatalf("%s/%+v: serial did not cover within %d rounds", g.Name(), cfg, roundCap)
			}
			for name, e := range engines {
				if !e.Complete() || e.Round() != ref.Round() {
					t.Fatalf("%s/%+v: %s cover time %d (complete=%v) != serial %d",
						g.Name(), cfg, name, e.Round(), e.Complete(), ref.Round())
				}
			}
		}
	}
}

// Cover times through the Run driver must agree too (it shares the
// per-step states above, but Run adds the round-cap bookkeeping).
func TestCrossEngineCoverTimesViaRun(t *testing.T) {
	g := graph.Hypercube(8)
	cfg := Config{Branch: 2}
	for seed := uint64(1); seed <= 5; seed++ {
		kseed := xrand.New(seed).Uint64()
		serial, err := New(g, cfg, []int{3}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		st, err := serial.Run()
		if err != nil {
			t.Fatal(err)
		}
		par := cfg.engineParams()
		par.Mode = engine.ForceDense
		k, err := engine.NewCobra(g, par, []int{3}, kseed)
		if err != nil {
			t.Fatal(err)
		}
		for !k.Complete() {
			k.Step()
		}
		if st != k.Round() {
			t.Fatalf("seed %d: Run cover %d != forced-dense cover %d", seed, st, k.Round())
		}
	}
}
