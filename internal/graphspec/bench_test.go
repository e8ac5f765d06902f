package graphspec

import "testing"

// BenchmarkGraphCompile times Parse of the three full-size graphs the
// paper-sweep workload compiles: a random 3-regular expander, a
// Barabási–Albert graph and a 2-D torus. CI fails the build when the
// expander's compile makes more than 256 allocations, so a per-vertex
// allocation in the builder cannot come back unseen.
func BenchmarkGraphCompile(b *testing.B) {
	for _, spec := range []string{"rreg:262144:3", "ba:65536:3", "torus:128:128"} {
		b.Run(spec, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(spec, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
