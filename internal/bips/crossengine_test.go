package bips

import (
	"testing"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Cross-engine equivalence for BIPS: the Process and the kernel in all
// three representation modes must produce identical infection traces for
// a fixed master seed.

type bipsEngine interface {
	Step()
	Round() int
	Complete() bool
	InfectedCount() int
	Infected() *bitset.Set
}

type kernelFace struct{ *engine.Kernel }

func (k kernelFace) Infected() *bitset.Set { return k.Frontier() }
func (k kernelFace) InfectedCount() int    { return k.FrontierCount() }

func TestCrossEngineEquivalenceBIPS(t *testing.T) {
	ba, err := graph.BarabasiAlbert(300, 2, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := graph.WattsStrogatz(256, 6, 0.2, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		graph.Hypercube(6),
		graph.Torus(7, 7),
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
			seed := uint64(100*gi + ci + 1)
			kseed := xrand.New(seed).Uint64()
			engines := map[string]bipsEngine{}
			serial, err := New(g, cfg, 0, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			engines["serial"] = serial
			for name, mode := range map[string]engine.Mode{
				"forced-sparse": engine.ForceSparse,
				"forced-dense":  engine.ForceDense,
				"adaptive":      engine.Adaptive,
			} {
				par := cfg.Params()
				par.Mode = mode
				k, err := engine.NewBips(g, par, 0, kseed)
				if err != nil {
					t.Fatal(err)
				}
				engines[name] = kernelFace{k}
			}
			ref := engines["serial"]
			const roundCap = 40000
			for r := 0; r < roundCap && !ref.Complete(); r++ {
				for _, e := range engines {
					e.Step()
				}
				for name, e := range engines {
					if e.InfectedCount() != ref.InfectedCount() {
						t.Fatalf("%s/%+v round %d: %s infected %d != serial %d",
							g.Name(), cfg, r+1, name, e.InfectedCount(), ref.InfectedCount())
					}
					if !e.Infected().Equal(ref.Infected()) {
						t.Fatalf("%s/%+v round %d: %s infected set diverged",
							g.Name(), cfg, r+1, name)
					}
				}
			}
			if !ref.Complete() {
				t.Fatalf("%s/%+v: serial not fully infected within %d rounds", g.Name(), cfg, roundCap)
			}
			for name, e := range engines {
				if !e.Complete() || e.Round() != ref.Round() {
					t.Fatalf("%s/%+v: %s infection time %d (complete=%v) != serial %d",
						g.Name(), cfg, name, e.Round(), e.Complete(), ref.Round())
				}
			}
		}
	}
}
