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
// Both paths push through cobraWord, so every representation consumes the
// (round, vertex) stream identically and the trajectories agree bit for
// bit.

// cobraWord pushes the particles of the active vertices of bitset word
// wi, the vertices 64·wi + j for the set bits j of act, and marks every
// target in next. A sparse round passes its new-frontier list, one
// vertex at a time, and each target next did not hold yet is appended to
// it: next deduplicates the new frontier. A dense round passes whole
// words of cur and nil. It returns the particle count.
//
// A kernel with ρ = 0 and not Lazy (k.closed) computes each vertex's
// first three targets in closed form from its stream's splitmix64 words
// (xrand.StreamCounter, StreamWord, Draw1–Draw3), reading the raw CSR
// arrays, with no call per vertex: this is the one place the closed-form
// push order is written. A draw that falls into Lemire's rejection tail
// (probability below deg/2^64), and a fourth particle, leave it for
// pushFrom. Any other kernel pushes each vertex through pushFrom.
func (k *Kernel) cobraWord(wi int, act uint64, list *[]int32) (sent int) {
	base := wi * 64
	if !k.closed {
		for ; act != 0; act &= act - 1 {
			sent += k.pushFrom(base+bits.TrailingZeros64(act), 0, list)
		}
		return sent
	}
	off, adj := k.g.CSR()
	next, b := k.next, k.par.Branch
	seed, key := k.seed, streamKey(k.round, base)
	sent = b * bits.OnesCount64(act)
	for ; act != 0; act &= act - 1 {
		j := bits.TrailingZeros64(act)
		v := base + j
		o := int(off[v])
		deg := uint64(int(off[v+1]) - o) // a degree-0 vertex panics below
		sc := xrand.StreamCounter(seed, key+uint64(j))
		s1 := xrand.StreamWord(sc, 1)
		hi, lo := bits.Mul64(xrand.Draw1(s1), deg)
		if lo < deg {
			k.pushFrom(v, 0, list)
			continue
		}
		land(next, adj[o+int(hi)], list)
		if b == 1 {
			continue
		}
		s0, s2 := xrand.StreamWord(sc, 0), xrand.StreamWord(sc, 2)
		hi, lo = bits.Mul64(xrand.Draw2(s0, s1, s2), deg)
		if lo < deg {
			k.pushFrom(v, 1, list)
			continue
		}
		land(next, adj[o+int(hi)], list)
		if b == 2 {
			continue
		}
		hi, lo = bits.Mul64(xrand.Draw3(s0, s1, xrand.StreamWord(sc, 3)), deg)
		if lo < deg {
			k.pushFrom(v, 2, list)
			continue
		}
		land(next, adj[o+int(hi)], list)
		if b > 3 {
			k.pushFrom(v, 3, list)
		}
	}
	return sent
}

// pushFrom sends v's particles from particle i on, after i sent ones,
// marks every target in next as cobraWord does, and returns how many it
// sent. It reads v's (round, v) stream positioned after i draws
// (xrand.StreamAt). A closed kernel's cobraWord calls it for a draw that
// fell into Lemire's rejection tail, and for the particles after the
// third; its rejection loop is xrand.(*RNG).Uint64nTail. Any other
// kernel pushes every vertex here from i = 0, in the one fixed order:
// the fractional-branch Bernoulli, then per particle the lazy coin and
// Lemire's multiply.
func (k *Kernel) pushFrom(v, i int, list *[]int32) int {
	key := streamKey(k.round, v)
	b := k.par.Branch
	var rng xrand.RNG
	if k.closed {
		rng = xrand.StreamAt(k.seed, key, i)
	} else {
		rng.Reseed(xrand.StreamCounter(k.seed, key)) // StreamValue, built in place
		if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
			b++
		}
	}
	nbrs := k.g.Neighbors(v)
	deg, next, lazy := uint64(len(nbrs)), k.next, k.par.Lazy
	for p := i; p < b; p++ {
		t := int32(v)
		if !lazy || rng.Uint64()&1 == 0 {
			hi, lo := bits.Mul64(rng.Uint64(), deg)
			if lo < deg {
				hi = rng.Uint64nTail(deg, hi, lo)
			}
			t = nbrs[hi] // a degree-0 vertex panics here
		}
		land(next, t, list)
	}
	return b - i
}

// land marks a particle's target t in next. A sparse round passes its
// new-frontier list and gets t appended when next did not hold it yet.
func land(next *bitset.Set, t int32, list *[]int32) {
	if list == nil {
		next.Set(int(t))
	} else if !next.TestAndSet(int(t)) {
		*list = append(*list, t)
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
		sent += int64(k.cobraWord(int(v)>>6, 1<<(uint32(v)&63), &list))
	}
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	k.cur, k.next = k.next, k.cur
	// Fold the new frontier into the covered set: O(|new|), not O(n).
	for _, w := range list {
		if !k.covered.TestAndSet(int(w)) {
			k.nCov++
		}
	}
	k.sent += sent
	k.coalesced += sent - int64(len(list))
	k.frontierN = len(list)
	k.curList, k.newList = list, k.curList
	k.curListOK = true
}

// cobraDense runs one round as two word scans. The scan pushes every
// frontier vertex's particles into next through cobraWord, a fetched word
// of up to 64 active vertices at a time. The fold then moves each next
// word into cur (zeroing it, which restores the zero-after-fold
// invariant), ORs it into covered, and sums the frontier count and the
// newly-covered count on the way. No degree is summed: only BIPS's
// representation rule reads the frontier volume, and FrontierVolume
// computes a COBRA kernel's on demand.
func (k *Kernel) cobraDense() {
	cur, next, covered := k.cur, k.next, k.covered
	var sent int64
	for wi, word := range cur.Words() {
		if word != 0 {
			sent += int64(k.cobraWord(wi, word, nil))
		}
	}
	frontierN, newCov := 0, 0
	for wi := 0; wi < cur.WordCount(); wi++ {
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
	}
	k.frontierN = frontierN
	k.nCov += newCov
	k.sent += sent
	k.coalesced += sent - int64(frontierN)
	k.curListOK = false
}
