// Package bitset implements dense bit sets over the vertex range [0, n):
// the representation of the informed/infected vertex sets in the
// simulation engines. A Set is for use by one goroutine at a time. It
// stores one bit per vertex in []uint64 words, so a 1M-vertex set is
// 128 KiB — small enough to stay cache-resident across rounds.
package bitset

import "math/bits"

const wordBits = 64

// Set is a fixed-capacity dense bit set. The zero value is unusable; create
// with New.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for items in [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity n of the set (not the population count).
func (s *Set) Len() int { return s.n }

// Set marks item i as present. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear removes item i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether item i is present.
func (s *Set) Contains(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// TestAndSet marks item i present and reports whether it already was:
// one word load for a membership test and an insert, the frontier
// engine's deduplication step.
func (s *Set) TestAndSet(i int) bool {
	w := &s.words[i/wordBits]
	m := uint64(1) << (uint(i) % wordBits)
	old := *w
	*w = old | m
	return old&m != 0
}

// Count returns the number of items present.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset removes all items, keeping capacity.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill marks every item in [0, n) present.
func (s *Set) Fill() {
	if len(s.words) == 0 {
		return
	}
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Zero the tail bits beyond n so Count stays exact.
	if rem := uint(s.n) % wordBits; rem != 0 {
		s.words[len(s.words)-1] = (1 << rem) - 1
	}
}

// Full reports whether every item in [0, n) is present.
func (s *Set) Full() bool { return s.Count() == s.n }

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// WordCount returns the number of backing words, (n+63)/64.
func (s *Set) WordCount() int { return len(s.words) }

// Word returns backing word i: items [64i, 64i+64), lowest item in the
// least significant bit. This is the hook the dense frontier engine uses
// to scan wide vertex sets without materialising a member slice.
func (s *Set) Word(i int) uint64 { return s.words[i] }

// Words returns the backing words, Word(i) for every i, for loops that
// read or write a whole set word by word. The slice aliases the set's
// storage: writing an element is a SetWord, and the caller keeps the tail
// bits beyond n zero.
func (s *Set) Words() []uint64 { return s.words }

// SetWord overwrites backing word i wholesale, for the dense frontier
// engine's word-at-a-time writes; the caller is responsible for keeping
// tail bits beyond n zero.
func (s *Set) SetWord(i int, w uint64) { s.words[i] = w }

// Equal reports whether s and other contain exactly the same members.
func (s *Set) Equal(other *Set) bool {
	if s.n != other.n {
		return false
	}
	for i, w := range other.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// Members appends all present items to dst (which may be nil) and returns it.
// Items are produced in increasing order.
func (s *Set) Members(dst []int) []int {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			dst = append(dst, base+tz)
			w &= w - 1
		}
	}
	return dst
}

// ForEach calls fn for every present item in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		base := wi * wordBits
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(base + tz)
			w &= w - 1
		}
	}
}
