package engine

import "github.com/repro/cobra/internal/xrand"

// BIPS round kernels. One round: every vertex u pulls b (or b+1 with
// probability Rho) uniform random neighbours — itself with probability 1/2
// per pull under Lazy — and joins A_{t+1} iff some pull lies in A_t; the
// persistent source is always infected. Unlike COBRA the frontier can
// shrink: every vertex re-decides each round.
//
// Only vertices in N(A_t) ∪ {source} — plus A_t itself under Lazy, where a
// self-pull can hit — can possibly join A_{t+1}; every other vertex pulls
// from a set disjoint from A_t and always decides "not infected". The
// sparse path therefore evaluates exactly that candidate superset, in
// Θ(vol(A_t)) work, and agrees bit for bit with the dense Θ(n) scan
// because each vertex's decision is a pure function of its own stream.

// bipsInfected draws u's pulls from its (round, u) stream and reports
// whether any lies in the current infected set. Early exit on the first
// hit is safe: the rest of the stream is never consumed elsewhere.
func (k *Kernel) bipsInfected(u int) bool {
	rng := xrand.StreamValue(k.seed, streamKey(k.round, u))
	b := k.drawCount(&rng)
	deg := k.g.Degree(u)
	for i := 0; i < b; i++ {
		if k.cur.Contains(k.drawTarget(u, deg, &rng)) {
			return true
		}
	}
	return false
}

// bipsSparse evaluates only the candidate superset N(A) ∪ {source}
// (∪ A under Lazy), built by stamping the frontier's neighbourhoods.
func (k *Kernel) bipsSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	k.bumpEpoch()
	k.candList = k.candList[:0]
	if k.stamp[k.source] != k.epoch {
		k.stamp[k.source] = k.epoch
		k.candList = append(k.candList, int32(k.source))
	}
	for _, v32 := range k.curList {
		v := int(v32)
		if k.par.Lazy && k.stamp[v] != k.epoch {
			k.stamp[v] = k.epoch
			k.candList = append(k.candList, v32)
		}
		for _, w := range k.g.Neighbors(v) {
			if k.stamp[w] != k.epoch {
				k.stamp[w] = k.epoch
				k.candList = append(k.candList, w)
			}
		}
	}
	k.newList = k.newList[:0]
	for _, u32 := range k.candList {
		u := int(u32)
		if u == k.source || k.bipsInfected(u) {
			k.newList = append(k.newList, u32)
		}
	}
	// Swap the frontier: clear the old members, set the new. All reads of
	// k.cur above see A_t because newList is built on the side.
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	vol := 0
	for _, w32 := range k.newList {
		w := int(w32)
		k.cur.Set(w)
		vol += k.g.Degree(w)
	}
	k.frontierN = len(k.newList)
	k.frontierVol = vol
	k.curList, k.newList = k.newList, k.curList
	k.curListOK = true
}

// bipsDense re-decides every vertex in one scan. Each next word is built
// in a register and stored once, overwriting whatever the buffer held, and
// the frontier count and volume are summed on the way; the frontier swap
// afterwards is a pointer exchange.
func (k *Kernel) bipsDense() {
	next, g := k.next, k.g
	n := g.N()
	frontierN, vol := 0, 0
	for wi := 0; wi < next.WordCount(); wi++ {
		base := wi * 64
		hi := base + 64
		if hi > n {
			hi = n
		}
		var w uint64
		for u := base; u < hi; u++ {
			if u == k.source || k.bipsInfected(u) {
				w |= 1 << uint(u-base)
				frontierN++
				vol += g.Degree(u)
			}
		}
		next.SetWord(wi, w)
	}
	k.cur, k.next = k.next, k.cur
	k.frontierN = frontierN
	k.frontierVol = vol
	k.curListOK = false
}
