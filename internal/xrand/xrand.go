// Package xrand provides the deterministic, splittable pseudo-random number
// generation used by every stochastic process in this repository.
//
// The requirements that rule out math/rand directly are:
//
//   - Reproducibility across parallel trials: a master seed must expand into
//     an arbitrary number of statistically independent streams, one per
//     trial or per worker, so that a whole experiment is a pure function of
//     (code, seed).
//   - Speed: one COBRA round draws b random neighbours for every informed
//     vertex; one BIPS round draws b neighbours for every vertex of the
//     graph. Bounded-uniform generation is the hottest operation in the
//     repository, so it uses Lemire's nearly-divisionless method.
//
// The generator is xoshiro256**, seeded through splitmix64 (the procedure
// recommended by the xoshiro authors). Streams are derived by seeding
// splitmix64 with master-seed XOR a stream index scrambled by a fixed odd
// constant, which gives well-separated initial states.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** generator. It is NOT safe for concurrent use; give
// each goroutine its own stream via Split or NewStream.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// golden is 2^64 / phi, the splitmix64 increment.
const golden = 0x9e3779b97f4a7c15

// splitmix64 advances *x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += golden
	return finalize(*x)
}

// finalize is splitmix64's output function. It is a bijection of the
// 64-bit words (two xorshifts and two odd multiplies) that maps 0 to 0.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given seed. Any seed value,
// including zero, yields a valid non-degenerate state.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// NewStream returns the stream-th generator derived from a master seed.
// Distinct stream indices yield well-separated generators; the mapping is
// deterministic, so (seed, stream) fully identifies the sequence.
func NewStream(seed, stream uint64) *RNG {
	r := StreamValue(seed, stream)
	return &r
}

// StreamValue is NewStream returning the generator by value, for hot loops
// that derive one short-lived stream per item and want it stack-allocated.
// The sequence is bit-identical to NewStream(seed, stream).
func StreamValue(seed, stream uint64) RNG {
	var r RNG
	r.Reseed(StreamCounter(seed, stream))
	return r
}

// StreamCounter is the splitmix64 counter StreamValue(seed, stream) seeds
// from. The stream index is scrambled by an odd constant so that
// consecutive indices land far apart in splitmix64's sequence space.
//
// StreamCounter, StreamWord and Draw1–Draw3 give the first three draws of
// a stream in closed form, without building its state. With
// c = StreamCounter(seed, stream) and si = StreamWord(c, i), the draws of
// StreamValue(seed, stream) are Draw1(s1), Draw2(s0, s1, s2) and
// Draw3(s0, s1, s3): xoshiro256**'s output reads only the second state
// word, and the first two steps make that word s0^s1^s2, then
// s0^s3^(s1<<17). A caller that needs a fourth draw continues on
// Advanced(s0, s1, s2, s3, 3). One whose bounded draw falls into
// Lemire's rejection tail takes that draw again, and every later one,
// from StreamAt(seed, stream, k), where k draws came before it. Both are
// StreamValue(seed, stream) advanced by 3, respectively k, draws. The
// frontier engine's per-(round, vertex) draws take this path.
func StreamCounter(seed, stream uint64) uint64 {
	return seed ^ (stream*0xd1342543de82ef95 + 0x632be59bd9b4e019)
}

// StreamWord returns state word i ∈ {0, 1, 2, 3} of the generator that
// Reseed(c) builds: splitmix64 output i+1 from counter c.
func StreamWord(c uint64, i int) uint64 {
	return finalize(c + uint64(i+1)*golden)
}

// Draw1 is the first draw of the generator whose second state word is s1.
func Draw1(s1 uint64) uint64 { return scramble(s1) }

// Draw2 is the second draw of the generator whose state words are s0, s1,
// s2 and any s3.
func Draw2(s0, s1, s2 uint64) uint64 { return scramble(s0 ^ s1 ^ s2) }

// Draw3 is the third draw of the generator whose state words are s0, s1,
// s3 and any s2.
func Draw3(s0, s1, s3 uint64) uint64 { return scramble(s0 ^ s3 ^ s1<<17) }

// scramble is xoshiro256**'s output function: the draw of a state whose
// second word is s1.
func scramble(s1 uint64) uint64 {
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Advanced returns the generator with state words s0, s1, s2, s3,
// advanced by k draws.
func Advanced(s0, s1, s2, s3 uint64, k int) RNG {
	r := RNG{s0, s1, s2, s3}
	for ; k > 0; k-- {
		r.Uint64()
	}
	return r
}

// StreamAt returns StreamValue(seed, stream) advanced by k draws. It
// serves the rare closed-form draw that falls into Lemire's rejection
// tail, so it stays out of line.
//
//go:noinline
func StreamAt(seed, stream uint64, k int) RNG {
	c := StreamCounter(seed, stream)
	return Advanced(StreamWord(c, 0), StreamWord(c, 1), StreamWord(c, 2), StreamWord(c, 3), k)
}

// Reseed resets the generator state from seed, as New does.
//
// xoshiro's all-zero state is absorbing, but Reseed cannot produce it:
// the four words finalise the distinct counters seed+golden, …,
// seed+4·golden (golden is odd), and finalize is a bijection that fixes
// 0, so at most one word is 0. No guard is needed, so the closed-form
// draws above, which build no state, skip none.
func (r *RNG) Reseed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := scramble(r.s1)
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a new independent generator from this one, advancing this
// generator by one draw. Useful for handing sub-streams to workers.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method: nearly divisionless,
// and exactly uniform.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
//
// The draw is one multiply, hi:lo = x·n, accepting hi unless lo < n, and
// Uint64nTail settles that rare case. A hot loop may inline the multiply
// and call Uint64nTail itself (the frontier engine's per-pull draws do);
// it then consumes the generator exactly as Uint64n would.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		hi = r.Uint64nTail(n, hi, lo)
	}
	return hi
}

// Uint64nTail finishes a bounded draw whose first product x·n = hi:lo has
// lo < n, the only case in which Lemire's method can reject: it redraws
// while lo < 2^64 mod n and returns the accepted high word. n must be
// positive. It is the one definition of the rejection loop, and it stays
// out of line so that its division never enters a caller's hot loop.
//
//go:noinline
func (r *RNG) Uint64nTail(n, hi, lo uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(r.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a fresh slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p uniformly at random in place (Fisher–Yates).
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// NormFloat64 returns a standard normal variate using the polar
// (Marsaglia) method. Used only by statistics tests, not by hot paths.
// Each float64(·) rounds a product before the sum that follows it, so no
// target fuses the two (see package stats).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*float64(r.Float64()) - 1
		v := 2*float64(r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
