package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: same seed diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical draws out of 1000", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero seed produced %d zero outputs in 100 draws", zeros)
	}
}

func TestNewStreamSeparation(t *testing.T) {
	const draws = 500
	seen := make(map[uint64]int)
	for s := uint64(0); s < 8; s++ {
		r := NewStream(7, s)
		for i := 0; i < draws; i++ {
			seen[r.Uint64()]++
		}
	}
	for v, c := range seen {
		if c > 1 {
			t.Fatalf("value %d appeared %d times across streams (collision)", v, c)
		}
	}
}

func TestNewStreamDeterministic(t *testing.T) {
	a := NewStream(99, 3)
	b := NewStream(99, 3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewStream is not deterministic")
		}
	}
}

func TestReseedRestarts(t *testing.T) {
	r := New(5)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(5)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed: got %d want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

// TestIntnUniform checks a chi-square-like bound on bucket counts.
func TestIntnUniform(t *testing.T) {
	r := New(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	expect := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d: count %d too far from expected %.0f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(77)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(8)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %.4f", rate)
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(15)
	const draws = 100000
	trues := 0
	for i := 0; i < draws; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/draws-0.5) > 0.01 {
		t.Fatalf("Bool imbalance: %d/%d", trues, draws)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(33)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 6*math.Sqrt(expect) {
			t.Fatalf("Perm first element %d count %d vs expected %.0f", i, c, expect)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(4)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlapped %d/1000 draws", same)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(55)
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f", variance)
	}
}

// Property: Uint64n(n) < n for all n > 0.
func TestUint64nBoundProperty(t *testing.T) {
	r := New(61)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// uint64nReference is Uint64n as written before its rejection loop moved
// into Uint64nTail, kept verbatim as the reference for the split. It
// counts the redraws its loop makes in *redraws.
func uint64nReference(r *RNG, n uint64, redraws *int) uint64 {
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			*redraws++
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Splitting Uint64n into an inlinable multiply and Uint64nTail must not
// move a draw: the split and the reference return the same value and
// leave the generator in the same state, for small bounds and for bounds
// just above 2^63, where about half of all first products are rejected.
// The inlined form the engine uses is checked the same way.
func TestUint64nSplitMatchesReference(t *testing.T) {
	inlined := func(r *RNG, n uint64) uint64 {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo < n {
			hi = r.Uint64nTail(n, hi, lo)
		}
		return hi
	}
	bounds := []uint64{1, 2, 3, 5, 7, 64, 1000003, 1<<32 + 15}
	for d := uint64(0); d < 8; d++ {
		bounds = append(bounds, 1<<63+1+d*(1<<60), 1<<63-1-d)
	}
	redraws := 0
	for _, n := range bounds {
		ref, split, inl := New(n^0xa5), New(n^0xa5), New(n^0xa5)
		for i := 0; i < 4000; i++ {
			want := uint64nReference(ref, n, &redraws)
			if got := split.Uint64n(n); got != want {
				t.Fatalf("n=%d draw %d: Uint64n = %d, reference %d", n, i, got, want)
			}
			if got := inlined(inl, n); got != want {
				t.Fatalf("n=%d draw %d: inlined multiply = %d, reference %d", n, i, got, want)
			}
			if *split != *ref || *inl != *ref {
				t.Fatalf("n=%d draw %d: generator states diverge", n, i)
			}
		}
	}
	if redraws < 10000 {
		t.Fatalf("only %d redraws: the rejection loop was barely exercised", redraws)
	}
}

// Property: the same (seed, stream) pair always yields the same prefix.
func TestStreamReproducibleProperty(t *testing.T) {
	f := func(seed, stream uint64) bool {
		a := NewStream(seed, stream)
		b := NewStream(seed, stream)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000003)
	}
	_ = sink
}
