package graphspec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/cobra/internal/graph"
)

// Graph-instance fingerprints pin what Parse builds to bytes an earlier
// builder wrote. Each line of testdata/graphs.txt is one (spec, seed)
// pair: the graph's n, m, name, connectivity and an FNV-1a-64 hash over
// every vertex's degree and sorted neighbour list. A seeded generator
// that draws one number more or less, or a builder that changes which
// edge set it keeps, moves a hash here. The file is a fixed record, never
// regenerated: a change that moves any line builds different graphs.

// fingerprintSpecs covers every family of the grammar.
var fingerprintSpecs = []string{
	// The graphs perfbench's workloads compile.
	"rreg:1024:3", "ba:1024:3", "hypercube:10", "torus:32:32",
	"rreg:262144:3", "ba:65536:3", "torus:128:128",
	// Large random instances.
	"rreg:100000:3", "ba:100000:3", "er:2000:0.01", "ws:5000:6:0.1", "rtree:5000",
	// Other shapes of the seeded families.
	"rreg:5000:4", "rreg:2001:6", "ba:5000:1", "ws:2000:4:0", "ws:1000:8:1", "er:300:0.1",
	// Every deterministic family.
	"complete:300", "cycle:1001", "path:500", "star:100", "bintree:1023",
	"doublecycle:200", "grid:5:6:7", "grid:64:64", "torus:3:3:3", "torus:4:5",
	"lollipop:60:40", "barbell:40:20", "bipartite:50:70", "chord:200:4", "petersen",
}

var fingerprintSeeds = [...]uint64{1, 7}

// graphHash is FNV-1a-64 over every vertex's degree followed by its
// neighbour list, each as a little-endian uint32.
func graphHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf []byte
	for v := 0; v < g.N(); v++ {
		nb := g.Neighbors(v)
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(nb)))
		for _, w := range nb {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// graphFingerprintLines builds every (spec, seed) pair and returns one
// line per graph.
func graphFingerprintLines(tb testing.TB) []string {
	tb.Helper()
	var lines []string
	for _, spec := range fingerprintSpecs {
		for _, seed := range fingerprintSeeds {
			g, err := Parse(spec, seed)
			if err != nil {
				tb.Fatalf("%s seed %d: %v", spec, seed, err)
			}
			lines = append(lines, fmt.Sprintf("%s seed=%d n=%d m=%d name=%s connected=%t hash=%016x",
				spec, seed, g.N(), g.M(), g.Name(), g.IsConnected(), graphHash(g)))
		}
	}
	return lines
}

func TestGraphFingerprints(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "graphs.txt"))
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
	got := graphFingerprintLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d fingerprints, golden has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("graph %d:\n got %s\nwant %s", i, got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d fingerprints differ", bad, len(got))
	}
}
