package engine

import (
	"math/bits"

	"github.com/repro/cobra/internal/xrand"
)

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

// pullsInfected reports whether u pulls a vertex of cur this round. It
// draws from u's (round, u) stream in push's order — the fractional-branch
// Bernoulli, then per pull the lazy coin and Lemire's multiply — and
// stops at the first hit: the rest of the stream is never read anywhere.
func (k *Kernel) pullsInfected(u int) bool {
	rng := xrand.StreamValue(k.seed, streamKey(k.round, u))
	b := k.par.Branch
	if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
		b++
	}
	nbrs := k.g.Neighbors(u)
	deg := uint64(len(nbrs))
	cur, lazy := k.cur, k.par.Lazy
	for i := 0; i < b; i++ {
		t := u
		if !lazy || rng.Uint64()&1 == 0 {
			hi, lo := bits.Mul64(rng.Uint64(), deg)
			if lo < deg {
				hi = rng.Uint64nTail(deg, hi, lo)
			}
			t = int(nbrs[hi])
		}
		if cur.Contains(t) {
			return true
		}
	}
	return false
}

// bipsSparse evaluates only the candidate superset N(A) ∪ {source}
// (∪ A under Lazy). Candidates are marked in next, which deduplicates
// them; evaluation keeps the mark of every candidate that gets infected
// and clears the rest, so next ends the round holding A_{t+1} and becomes
// the frontier by a swap, while the old frontier's bits are cleared out of
// cur. A round with at least n/64 candidates — one per bitset word —
// evaluates them in vertex order by scanning next's words, which walks
// the adjacency arrays and cur in address order; a smaller candidate set
// keeps discovery order, so a narrow round stays Θ(vol(A_t)). The
// candidate list therefore stops growing at n/64 entries: past that
// length only the marks are read.
func (k *Kernel) bipsSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	g, next := k.g, k.next
	wide := next.WordCount() // candidate count from which vertex order runs
	cand := k.candList[:0]
	if !next.TestAndSet(k.source) {
		cand = append(cand, int32(k.source))
	}
	for _, v := range k.curList {
		if k.par.Lazy && !next.TestAndSet(int(v)) && len(cand) < wide {
			cand = append(cand, v)
		}
		for _, w := range g.Neighbors(int(v)) {
			if !next.TestAndSet(int(w)) && len(cand) < wide {
				cand = append(cand, w)
			}
		}
	}
	k.candList = cand

	list := k.newList[:0]
	vol := 0
	if len(cand) == wide {
		for wi := 0; wi < wide; wi++ {
			c := next.Word(wi)
			if c == 0 {
				continue
			}
			base := wi * 64
			w := c
			for ; c != 0; c &= c - 1 {
				u := base + bits.TrailingZeros64(c)
				if u == k.source || k.pullsInfected(u) {
					list = append(list, int32(u))
					vol += g.Degree(u)
				} else {
					w &^= c & -c
				}
			}
			next.SetWord(wi, w)
		}
	} else {
		for _, u := range cand {
			if int(u) == k.source || k.pullsInfected(int(u)) {
				list = append(list, u)
				vol += g.Degree(int(u))
			} else {
				next.Clear(int(u))
			}
		}
	}

	// Every read of cur above saw A_t; only now does it change.
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	k.cur, k.next = next, k.cur
	k.frontierN = len(list)
	k.frontierVol = vol
	k.curList, k.newList = list, k.curList
	k.curListOK = true
}

// bipsDense re-decides every vertex in one scan. Each next word is built
// in a register and stored once, and the frontier count and volume are
// summed on the way. The sets then swap, and the old frontier is cleared
// out of what is now next (zero-after-fold).
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
			if u == k.source || k.pullsInfected(u) {
				w |= 1 << uint(u-base)
				frontierN++
				vol += g.Degree(u)
			}
		}
		next.SetWord(wi, w)
	}
	k.cur, k.next = next, k.cur
	k.next.Reset()
	k.frontierN = frontierN
	k.frontierVol = vol
	k.curListOK = false
}
