package batch

import (
	"context"
	"testing"

	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/xrand"
)

// The acceptance benchmark pair: amortized per-trial cost of a campaign
// versus the naive loop-over-CoverTime baseline on a 2·10^5-vertex
// scale-free workload. One benchmark iteration is one trial in both, so
// ns/op and allocs/op are directly comparable; the campaign path should
// show near-zero allocs/op (workspace reuse) and no graph rebuild. Both
// pay the connectivity scan once: the graph memoizes it.

const benchGraph = "ba:200000:3"

func BenchmarkBatchCampaign(b *testing.B) {
	cache := NewCache(2)
	if _, err := cache.GetOrBuild(benchGraph, 1); err != nil { // compile outside the timer
		b.Fatal(err)
	}
	spec := Spec{Graph: benchGraph, Process: "cobra", Branch: 2, Trials: b.N, Seed: 1, Workers: 1}
	c, err := Compile(spec, cache)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := c.Run(context.Background(), nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweepParallelCells measures the sweep's trial loop on two
// grids, trials serialized per cell worker (Workers=1) so the cell-worker
// count is the only source of parallelism. One benchmark iteration is
// one full sweep. The uniform grid has four cells of comparable cost
// (all expander-like, similar cover times); compare its cellworkers=1
// and cellworkers=4 variants for the speedup. The skewed grid puts one
// cell several times costlier than the other three first, as
// paper-sweep's rreg BIPS cell is: at cellworkers=2 a loop that handed
// out whole cells would leave one goroutine idle while the other ran
// that cell's trials one after another, so compare skewed/cellworkers=1
// and skewed/cellworkers=2. Graphs are pre-compiled into the shared
// cache outside the timer, matching the warm-cache steady state of a
// campaign server.
func BenchmarkSweepParallelCells(b *testing.B) {
	uniform := SweepSpec{
		Graphs:    []string{"ba:20000:3", "ba:20000:4", "rreg:20000:3", "ws:20000:6:0.1"},
		Processes: []string{"cobra"},
		Branches:  []int{2},
		Trials:    4,
		Seed:      1,
		Workers:   1,
	}
	skewed := uniform
	skewed.Graphs = []string{"rreg:32768:3", "ba:2048:3", "torus:24:24", "hypercube:10"}
	skewed.Trials = 3
	cache := NewCache(len(uniform.Graphs) + len(skewed.Graphs))
	for _, g := range append(append([]string(nil), uniform.Graphs...), skewed.Graphs...) {
		if _, err := cache.GetOrBuild(g, uniform.Seed); err != nil {
			b.Fatal(err)
		}
	}
	for _, bench := range []struct {
		name        string
		spec        SweepSpec
		cellWorkers int
	}{
		{"cellworkers=1", uniform, 1},
		{"cellworkers=4", uniform, 4},
		{"skewed/cellworkers=1", skewed, 1},
		{"skewed/cellworkers=2", skewed, 2},
	} {
		spec := bench.spec
		spec.CellWorkers = bench.cellWorkers
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sw, err := CompileSweep(spec, cache)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sw.Run(context.Background(), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNaiveCoverLoop(b *testing.B) {
	g, err := graphspec.Parse(benchGraph, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Branch: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := core.CoverTime(g, cfg, 0, xrand.NewStream(1, uint64(k))); err != nil {
			b.Fatal(err)
		}
	}
}
