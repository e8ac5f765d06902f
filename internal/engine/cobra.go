package engine

import (
	"math/bits"

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
// It seeds v's (round, v) stream once and draws in one fixed order: the
// fractional-branch Bernoulli, then per particle the lazy coin and
// Lemire's multiply onto v's neighbour list; only the rare rejection tail
// (xrand's Uint64nTail) is a call. A sparse round passes its new-frontier
// list, and push appends each target next did not hold yet: next
// deduplicates the new frontier. A dense round passes nil. It returns the
// particle count.
func (k *Kernel) push(v int, list *[]int32) int {
	rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
	b := k.par.Branch
	if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
		b++
	}
	nbrs := k.g.Neighbors(v)
	deg := uint64(len(nbrs))
	next, lazy := k.next, k.par.Lazy
	for i := 0; i < b; i++ {
		t := v
		if !lazy || rng.Uint64()&1 == 0 {
			hi, lo := bits.Mul64(rng.Uint64(), deg)
			if lo < deg {
				hi = rng.Uint64nTail(deg, hi, lo)
			}
			t = int(nbrs[hi]) // a degree-0 vertex panics here
		}
		if list == nil {
			next.Set(t)
		} else if !next.TestAndSet(t) {
			*list = append(*list, int32(t))
		}
	}
	return b
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
