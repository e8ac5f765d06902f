package engine

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/xrand"
)

// Trajectory fingerprints pin every round path to bytes an earlier kernel
// wrote, so a draw-order slip copied into all paths alike — which the
// sparse-against-dense tests cannot see — still fails here. Each line of
// testdata/fingerprints.txt is one capped run: its round count, Sent,
// Coalesced, SparseRounds, TiledRounds and a 64-bit hash over the frontier
// words of every round, C_0 included. The file is a fixed record, never
// regenerated: a kernel change that moves any of these numbers changes
// the process the kernel simulates.

// fingerprintRounds caps every run; BIPS need not terminate, and
// non-lazy COBRA on a bipartite graph may never cover.
const fingerprintRounds = 120

// fingerprintSeeds are the kernel seeds of every configuration; the start
// vertex (COBRA's C_0, BIPS's source) is seed mod n.
var fingerprintSeeds = [...]uint64{7, 0x5eed_f00d_cafe}

// fingerprintGraphs is the graph matrix: an expander, a heavy-tailed
// graph, a bipartite graph, an odd cycle, a star, the Petersen graph and
// three draws of the property test's random connected graphs.
func fingerprintGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	var gs []*graph.Graph
	for _, spec := range []string{"rreg:1024:3", "ba:1024:3", "hypercube:8", "cycle:101", "star:40", "petersen"} {
		g, err := graphspec.Parse(spec, 1)
		if err != nil {
			tb.Fatal(err)
		}
		gs = append(gs, g)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		gs = append(gs, randomConnectedGraph(xrand.New(seed)))
	}
	return gs
}

var modeNames = map[Mode]string{Adaptive: "adaptive", ForceSparse: "sparse", ForceDense: "dense"}

// frontierHash folds every word of the frontier into h through the
// splitmix64 finaliser, a bijection, so no two word sequences that differ
// in one word collide.
func frontierHash(h uint64, k *Kernel) uint64 {
	f := k.Frontier()
	for wi := 0; wi < f.WordCount(); wi++ {
		h ^= f.Word(wi)
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// fingerprintLines runs the whole matrix and returns one line per run.
func fingerprintLines(tb testing.TB) []string {
	var lines []string
	for gi, g := range fingerprintGraphs(tb) {
		for _, kind := range []Kind{Cobra, Bips} {
			for branch := 1; branch <= 3; branch++ {
				for _, rho := range []float64{0, 0.5} {
					for _, lazy := range []bool{false, true} {
						for _, mode := range reprModes {
							for _, seed := range fingerprintSeeds {
								par := Params{Branch: branch, Rho: rho, Lazy: lazy, Mode: mode}
								lines = append(lines, fingerprint(tb, gi, g, kind, par, seed))
							}
						}
					}
				}
			}
		}
	}
	return lines
}

// fingerprint runs one configuration for at most fingerprintRounds rounds.
func fingerprint(tb testing.TB, gi int, g *graph.Graph, kind Kind, par Params, seed uint64) string {
	tb.Helper()
	start := int(seed % uint64(g.N()))
	var k *Kernel
	var err error
	kindName := "cobra"
	if kind == Cobra {
		k, err = NewCobra(g, par, []int{start}, seed)
	} else {
		kindName = "bips"
		k, err = NewBips(g, par, start, seed)
	}
	if err != nil {
		tb.Fatal(err)
	}
	h := frontierHash(0, k)
	for k.Round() < fingerprintRounds && !k.Complete() {
		k.Step()
		h = frontierHash(h, k)
	}
	lazy := 0
	if par.Lazy {
		lazy = 1
	}
	return fmt.Sprintf("g%d:%s %s b=%d rho=%g lazy=%d mode=%s seed=%d rounds=%d sent=%d coalesced=%d sparse=%d tiled=%d hash=%016x",
		gi, g.Name(), kindName, par.Branch, par.Rho, lazy, modeNames[par.Mode], seed,
		k.Round(), k.Sent(), k.Coalesced(), k.SparseRounds(), k.TiledRounds(), h)
}

func TestTrajectoryFingerprints(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "fingerprints.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := fingerprintLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("run %d:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d fingerprints differ", bad, len(got))
	}
}
