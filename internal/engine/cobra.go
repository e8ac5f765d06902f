package engine

import (
	"math/bits"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/xrand"
)

// COBRA round kernels. One round: every vertex of C_t pushes b (or b+1
// with probability Rho) particles to uniform random neighbours — to itself
// with probability 1/2 per particle under Lazy — and the targets form
// C_{t+1}. Multiple arrivals coalesce via set semantics.
//
// Both paths draw through push, so every representation consumes the
// (round, vertex) stream identically and the trajectories agree bit for
// bit.

// push sends v's particles for this round and marks every target in next.
// It draws from v's (round, v) stream in one fixed order: the
// fractional-branch Bernoulli, then per particle the lazy coin and
// Lemire's multiply onto v's neighbour list. A kernel with ρ = 0 and not
// Lazy (k.closed) takes the first three draws in closed form from the
// stream's splitmix64 words (xrand.StreamCounter) and builds a generator
// only for a fourth particle, or for Lemire's rejection tail, which a
// draw reaches with probability below deg/2^64: the loop then redraws
// from the stream positioned before the draw that fell in it. No draw
// makes a call outside that tail. A sparse round
// passes its new-frontier list, and push appends each target next did
// not hold yet: next deduplicates the new frontier. A dense round passes
// nil. It returns the particle count.
func (k *Kernel) push(v int, list *[]int32) int {
	nbrs := k.g.Neighbors(v)
	deg, next := uint64(len(nbrs)), k.next
	key := streamKey(k.round, v)
	b, i := k.par.Branch, 0
	var rng xrand.RNG
	switch {
	case k.closed:
		c := xrand.StreamCounter(k.seed, key)
		s1 := xrand.StreamWord(c, 1)
		hi, lo := bits.Mul64(xrand.Draw1(s1), deg)
		if lo < deg { // Lemire's tail: the loop redraws from here
			rng = xrand.StreamAt(k.seed, key, 0)
			break
		}
		land(next, int(nbrs[hi]), list)
		if b == 1 {
			return 1
		}
		s0, s2 := xrand.StreamWord(c, 0), xrand.StreamWord(c, 2)
		hi, lo = bits.Mul64(xrand.Draw2(s0, s1, s2), deg)
		if lo < deg {
			rng, i = xrand.StreamAt(k.seed, key, 1), 1
			break
		}
		land(next, int(nbrs[hi]), list)
		if b == 2 {
			return 2
		}
		s3 := xrand.StreamWord(c, 3)
		hi, lo = bits.Mul64(xrand.Draw3(s0, s1, s3), deg)
		if lo < deg {
			rng, i = xrand.StreamAt(k.seed, key, 2), 2
			break
		}
		land(next, int(nbrs[hi]), list)
		if b == 3 {
			return 3
		}
		rng, i = xrand.Advanced(s0, s1, s2, s3, 3), 3
	default:
		rng.Reseed(xrand.StreamCounter(k.seed, key)) // StreamValue, built in place
		if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
			b++
		}
	}
	lazy := k.par.Lazy
	for ; i < b; i++ {
		t := v
		if !lazy || rng.Uint64()&1 == 0 {
			hi, lo := bits.Mul64(rng.Uint64(), deg)
			if lo < deg {
				hi = rng.Uint64nTail(deg, hi, lo)
			}
			t = int(nbrs[hi]) // a degree-0 vertex panics here
		}
		land(next, t, list)
	}
	return b
}

// land marks a particle's target t in next. A sparse round passes its
// new-frontier list and gets t appended when next did not hold it yet.
func land(next *bitset.Set, t int, list *[]int32) {
	if list == nil {
		next.Set(t)
	} else if !next.TestAndSet(t) {
		*list = append(*list, int32(t))
	}
}

// cobraSparse runs one round over the active-vertex slice. Pushes mark
// next, which then holds exactly C_{t+1}: clearing C_t out of cur and
// swapping the two sets leaves next all-zero again. No Θ(n) work
// anywhere.
func (k *Kernel) cobraSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	list := k.newList[:0]
	var sent int64
	for _, v := range k.curList {
		sent += int64(k.push(int(v), &list))
	}
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	k.cur, k.next = k.next, k.cur
	// Fold the new frontier into the covered set: O(|new|), not O(n).
	vol := 0
	for _, w := range list {
		vol += k.g.Degree(int(w))
		if !k.covered.TestAndSet(int(w)) {
			k.nCov++
		}
	}
	k.sent += sent
	k.coalesced += sent - int64(len(list))
	k.frontierN = len(list)
	k.frontierVol = vol
	k.curList, k.newList = list, k.curList
	k.curListOK = true
}

// cobraDense runs one round as two word scans. The scan draws every
// frontier vertex's pushes into next, decoding up to 64 active vertices
// per fetched word. The fold then moves each next word into cur (zeroing
// it, which restores the zero-after-fold invariant), ORs it into covered,
// and sums the frontier count, volume and newly-covered count on the way.
func (k *Kernel) cobraDense() {
	cur, next, covered, g := k.cur, k.next, k.covered, k.g
	nw := cur.WordCount()
	var sent int64
	for wi := 0; wi < nw; wi++ {
		word := cur.Word(wi)
		base := wi * 64
		for word != 0 {
			v := base + bits.TrailingZeros64(word)
			word &= word - 1
			sent += int64(k.push(v, nil))
		}
	}
	frontierN, vol, newCov := 0, 0, 0
	for wi := 0; wi < nw; wi++ {
		w := next.Word(wi)
		if w != 0 {
			next.SetWord(wi, 0)
		}
		cur.SetWord(wi, w)
		if w == 0 {
			continue
		}
		old := covered.Word(wi)
		if newBits := w &^ old; newBits != 0 {
			covered.SetWord(wi, old|w)
			newCov += bits.OnesCount64(newBits)
		}
		frontierN += bits.OnesCount64(w)
		base := wi * 64
		for bw := w; bw != 0; bw &= bw - 1 {
			vol += g.Degree(base + bits.TrailingZeros64(bw))
		}
	}
	k.frontierN = frontierN
	k.frontierVol = vol
	k.nCov += newCov
	k.sent += sent
	k.coalesced += sent - int64(frontierN)
	k.curListOK = false
}
