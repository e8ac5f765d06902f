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
// The draw structure per vertex (fractional-branch Bernoulli first, then
// per-particle lazy coin and neighbour index) is fixed across both paths
// below, so every representation consumes the (round, vertex) stream
// identically and the trajectories agree bit for bit.

// drawCount draws the number of particles v sends this round.
func (k *Kernel) drawCount(rng *xrand.RNG) int {
	b := k.par.Branch
	if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
		b++
	}
	return b
}

// drawTarget draws one particle target for v.
func (k *Kernel) drawTarget(v, deg int, rng *xrand.RNG) int {
	if k.par.Lazy && rng.Bool() {
		return v
	}
	return k.g.Neighbor(v, rng.Intn(deg))
}

// cobraSparse runs one round over the active-vertex slice, deduplicating
// the next frontier with the stamp array. No Θ(n) work anywhere.
func (k *Kernel) cobraSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	k.bumpEpoch()
	k.newList = k.newList[:0]
	var sent int64
	for _, v32 := range k.curList {
		v := int(v32)
		rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
		b := k.drawCount(&rng)
		deg := k.g.Degree(v)
		for i := 0; i < b; i++ {
			t := k.drawTarget(v, deg, &rng)
			if k.stamp[t] != k.epoch {
				k.stamp[t] = k.epoch
				k.newList = append(k.newList, int32(t))
			}
		}
		sent += int64(b)
	}
	// Maintain the authoritative bitset incrementally and fold the new
	// frontier into the covered set: O(|old| + |new|), not O(n).
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	vol := 0
	for _, w32 := range k.newList {
		w := int(w32)
		k.cur.Set(w)
		vol += k.g.Degree(w)
		if !k.covered.Contains(w) {
			k.covered.Set(w)
			k.nCov++
		}
	}
	k.sent += sent
	k.coalesced += sent - int64(len(k.newList))
	k.frontierN = len(k.newList)
	k.frontierVol = vol
	k.curList, k.newList = k.newList, k.curList
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
			rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
			b := k.drawCount(&rng)
			deg := g.Degree(v)
			for i := 0; i < b; i++ {
				next.Set(k.drawTarget(v, deg, &rng))
			}
			sent += int64(b)
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
