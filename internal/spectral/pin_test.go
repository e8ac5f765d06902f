package spectral

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// ConductanceSweep and FullSpectrum are pinned bit for bit on the graphs
// the spectral tests build: each row holds the sweep's float64 bits and
// an FNV-64a hash of the spectrum's bits in order, so a change of sort
// order or of arithmetic that moves one bit fails here.
func TestConductanceAndSpectrumBits(t *testing.T) {
	er60, err := graph.ErdosRenyi(60, 0.12, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	er50, err := graph.ErdosRenyi(50, 0.15, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rr40, err := graph.RandomRegular(40, 3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g          *graph.Graph
		phi, eigFP uint64
	}{
		{graph.Complete(5), 0x3fe8000000000000, 0x57821887665ec967},
		{graph.Cycle(4), 0x3fe0000000000000, 0x060d03bde3b3aaf3},
		{graph.Petersen(), 0x3fddddddddddddde, 0x297999c7ad82c189},
		{graph.Hypercube(4), 0x3fd8000000000000, 0xb914faa78103b0b1},
		{er60, 0x3fd390948f40feac, 0xee4eb5893b10d0f5},
		{er50, 0x3fd5555555555555, 0xfe0626b0e67ef463},
		{rr40, 0x3fc435e50d79435e, 0x57752ae3963269c9},
		{graph.Cycle(8), 0x3fd0000000000000, 0xb77a7f1b6f139a23},
		{graph.Star(7), 0x3ff0000000000000, 0x6a1267f67ef5f79d},
		{graph.CompleteBipartite(3, 5), 0x3fe2492492492492, 0xebda5f0d94fe8362},
		{graph.Cycle(12), 0x3fc5555555555555, 0xc678b1324540bddf},
		{graph.Complete(8), 0x3fe2492492492492, 0xe3de2bd7b02f097a},
		{graph.Path(10), 0x3fbc71c71c71c71c, 0x261eb8effacf4f83},
		{graph.Lollipop(6, 6), 0x3fb745d1745d1746, 0xaefa338666a96645},
		{graph.Cycle(10), 0x3fc999999999999a, 0x960f89bef10328f9},
		{graph.Path(12), 0x3fb745d1745d1746, 0x43fcf521bbb4d75a},
		{graph.DoubleCycle(16), 0x3fc8000000000000, 0xa0151fe304e1daca},
		{graph.Chord(15, 3), 0x3fd2492492492492, 0x208334ed302e0a1c},
	} {
		phi, err := ConductanceSweep(c.g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(phi); got != c.phi {
			t.Errorf("%s: ConductanceSweep bits %#016x, want %#016x", c.g.Name(), got, c.phi)
		}
		eig, err := FullSpectrum(c.g)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, v := range eig {
			fmt.Fprintf(h, "%016x", math.Float64bits(v))
		}
		if got := h.Sum64(); got != c.eigFP {
			t.Errorf("%s: FullSpectrum hash %#016x, want %#016x", c.g.Name(), got, c.eigFP)
		}
	}
}
