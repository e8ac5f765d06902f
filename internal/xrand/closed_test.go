package xrand

import (
	"math/bits"
	"testing"
)

// closedBounded returns count bounded draws in [0, n) from the stream
// (seed, stream), taken the way the frontier engine takes them: the first
// three from the closed-form words, and the rest from Advanced(s0, s1,
// s2, s3, 3). A closed-form draw i (counted from 0) whose product falls
// into Lemire's tail (lo < n) is redrawn from StreamAt(seed, stream, i),
// which then serves every later draw. tails[i] counts the closed-form
// draws that took that path.
func closedBounded(seed, stream, n uint64, count int, tails *[3]int) []uint64 {
	c := StreamCounter(seed, stream)
	s0, s1, s2, s3 := StreamWord(c, 0), StreamWord(c, 1), StreamWord(c, 2), StreamWord(c, 3)
	closed := [3]uint64{Draw1(s1), Draw2(s0, s1, s2), Draw3(s0, s1, s3)}
	out := make([]uint64, 0, count)
	rng := Advanced(s0, s1, s2, s3, 3)
	for i := 0; i < count && i < 3; i++ {
		hi, lo := bits.Mul64(closed[i], n)
		if lo < n {
			tails[i]++
			rng = StreamAt(seed, stream, i)
			break
		}
		out = append(out, hi)
	}
	for len(out) < count {
		out = append(out, rng.Uint64n(n))
	}
	return out
}

// checkClosedForm compares the closed-form draws, the positioned
// generators and closedBounded with StreamValue(seed, stream) and its
// Uint64n sequence.
func checkClosedForm(t *testing.T, seed, stream, n uint64, tails *[3]int) {
	t.Helper()
	ref := StreamValue(seed, stream)
	c := StreamCounter(seed, stream)
	s0, s1, s2, s3 := StreamWord(c, 0), StreamWord(c, 1), StreamWord(c, 2), StreamWord(c, 3)
	if got := (RNG{s0, s1, s2, s3}); got != ref {
		t.Fatalf("seed=%#x stream=%#x: StreamWord state %+v, StreamValue %+v", seed, stream, got, ref)
	}
	for k := 0; k <= 5; k++ {
		if got := StreamAt(seed, stream, k); got != ref {
			t.Fatalf("seed=%#x stream=%#x: StreamAt(%d) = %+v, want %+v", seed, stream, k, got, ref)
		}
		if got := Advanced(s0, s1, s2, s3, k); got != ref {
			t.Fatalf("seed=%#x stream=%#x: Advanced(%d) = %+v, want %+v", seed, stream, k, got, ref)
		}
		x := ref.Uint64()
		var closed uint64
		switch k {
		case 0:
			closed = Draw1(s1)
		case 1:
			closed = Draw2(s0, s1, s2)
		case 2:
			closed = Draw3(s0, s1, s3)
		default:
			continue
		}
		if closed != x {
			t.Fatalf("seed=%#x stream=%#x: closed-form draw %d = %#x, StreamValue drew %#x", seed, stream, k+1, closed, x)
		}
	}
	const count = 6
	want := StreamValue(seed, stream)
	got := closedBounded(seed, stream, n, count, tails)
	for i := 0; i < count; i++ {
		if w := want.Uint64n(n); got[i] != w {
			t.Fatalf("seed=%#x stream=%#x n=%#x: bounded draw %d = %d, Uint64n %d", seed, stream, n, i+1, got[i], w)
		}
	}
}

// The closed-form first three draws, StreamAt and Advanced agree with
// StreamValue over many (seed, stream) pairs, and so do bounded draws
// taken through them, for small bounds and for bounds near 2^63, where
// about half of all products fall into Lemire's tail: there the tail
// fires at the first, second and third closed-form draw. (The engine's
// degrees never get near: its tail has probability below deg/2^64.)
func TestClosedFormMatchesStream(t *testing.T) {
	bounds := []uint64{1, 2, 3, 5, 8, 1000003, 1<<32 + 15, 1<<63 - 1, 1 << 63, 1<<63 + 1, 1<<63 + 1<<61, ^uint64(0)}
	g := uint64(golden)
	edges := []uint64{0, 1, g, -g, ^uint64(0), 1 << 63}
	pairs := New(2026)
	var tails [3]int
	for _, n := range bounds {
		for _, seed := range edges {
			for _, stream := range edges {
				checkClosedForm(t, seed, stream, n, &tails)
			}
		}
		for i := 0; i < 3000; i++ {
			checkClosedForm(t, pairs.Uint64(), pairs.Uint64(), n, &tails)
		}
	}
	for i, c := range tails {
		if c < 100 {
			t.Fatalf("Lemire's tail fired %d times at closed-form draw %d; the redraw path was barely exercised", c, i+1)
		}
	}
}

// Reseed needs no all-zero guard: its four words finalise four distinct
// counters, and the finaliser is a bijection that fixes 0, so at most one
// word is 0. The seeds below make each word 0 in turn.
func TestReseedAtMostOneZeroWord(t *testing.T) {
	if finalize(0) != 0 {
		t.Fatal("finalize(0) != 0")
	}
	for k := uint64(1); k <= 4; k++ {
		var r RNG
		r.Reseed(-k * uint64(golden))
		words := [4]uint64{r.s0, r.s1, r.s2, r.s3}
		for i, w := range words {
			if (w == 0) != (uint64(i) == k-1) {
				t.Fatalf("seed -%d·golden: words %#x, want only word %d zero", k, words, k-1)
			}
		}
		if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
			t.Fatalf("seed -%d·golden: degenerate output", k)
		}
	}
}

// FuzzClosedForm checks TestClosedFormMatchesStream's property on
// arbitrary (seed, stream, bound) triples.
func FuzzClosedForm(f *testing.F) {
	g := uint64(golden)
	f.Add(uint64(0), uint64(0), uint64(3))
	f.Add(uint64(1), uint64(7)<<32|5, uint64(1000003))
	f.Add(-g, uint64(1), uint64(1)<<63+1)
	f.Add(^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, stream, n uint64) {
		if n == 0 {
			n = 1
		}
		var tails [3]int
		checkClosedForm(t, seed, stream, n, &tails)
	})
}
