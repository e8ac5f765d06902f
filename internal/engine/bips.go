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
// The complement round is the same argument the other way round: only
// N(V∖A_t) — plus V∖A_t itself under Lazy — can fail to join, so once
// A_t is nearly everything it evaluates those, in Θ(n/64 + vol(V∖A_t)).

// bipsWord decides the candidates of bitset word wi, the vertices
// 64·wi + j for the set bits j of cand, and returns the word of those
// that join A_{t+1} and the sum of their degrees. The source is always
// infected and draws nothing.
//
// A kernel with ρ = 0 and not Lazy (k.closed) takes each candidate's
// first three pulls in closed form from its stream's splitmix64 words
// (xrand.StreamCounter, StreamWord, Draw1–Draw3), reading the raw CSR
// arrays and cur's words, in two passes over the word. The first takes
// every candidate's first pull with no branch on its outcome: the
// neighbour's frontier bit is ORed into the result, and the degree
// already loaded is added under the same bit. The second takes pulls 2
// and 3 for the word's misses only. This is the one place the
// closed-form pull order is written. A pull that falls into Lemire's
// rejection tail (probability below deg/2^64), and a fourth pull, leave
// it for pullsFrom; a tail draw in the first pass may read any
// neighbour, since its high word is below deg, and its bit is discarded.
// Any other kernel decides each candidate through pullsFrom.
func (k *Kernel) bipsWord(wi int, cand uint64) (w uint64, vol int) {
	base := wi * 64
	off, adj := k.g.CSR()
	if s := uint(k.source - base); s < 64 && cand&(1<<s) != 0 {
		cand &^= 1 << s
		w = 1 << s
		vol = int(off[k.source+1] - off[k.source])
	}
	if !k.closed {
		for c := cand; c != 0; c &= c - 1 {
			if u := base + bits.TrailingZeros64(c); k.pullsFrom(u, 0) {
				w |= c & -c
				vol += int(off[u+1] - off[u])
			}
		}
		return w, vol
	}
	curw := k.cur.Words()
	seed, key := k.seed, streamKey(k.round, base)
	var hits, tail uint64
	for c := cand; c != 0; c &= c - 1 {
		j := uint(bits.TrailingZeros64(c))
		u := base + int(j)
		o := int(off[u])
		deg := uint64(int(off[u+1]) - o)
		s1 := xrand.StreamWord(xrand.StreamCounter(seed, key+uint64(j)), 1)
		hi, lo := bits.Mul64(xrand.Draw1(s1), deg)
		_, borrow := bits.Sub64(lo, deg, 0) // 1 iff lo < deg: Lemire's tail
		tail |= borrow << j
		t := uint32(adj[o+int(hi)])
		hit := curw[t>>6] >> (t & 63) & 1
		hits |= hit << j
		vol += int(deg & -hit)
	}
	for c := tail; c != 0; c &= c - 1 {
		u := base + bits.TrailingZeros64(c)
		deg := int(off[u+1] - off[u])
		if hits&c&-c != 0 {
			hits &^= c & -c
			vol -= deg
		}
		if k.pullsFrom(u, 0) {
			hits |= c & -c
			vol += deg
		}
	}
	b := k.par.Branch
	if b == 1 {
		return w | hits, vol
	}
	for c := cand &^ hits &^ tail; c != 0; c &= c - 1 {
		j := uint(bits.TrailingZeros64(c))
		u := base + int(j)
		o := int(off[u])
		deg := uint64(int(off[u+1]) - o)
		sc := xrand.StreamCounter(seed, key+uint64(j))
		s0, s1, s2 := xrand.StreamWord(sc, 0), xrand.StreamWord(sc, 1), xrand.StreamWord(sc, 2)
		var in bool
		hi, lo := bits.Mul64(xrand.Draw2(s0, s1, s2), deg)
		switch {
		case lo < deg:
			in = k.pullsFrom(u, 1)
		case has(curw, adj[o+int(hi)]):
			in = true
		case b > 2:
			s3 := xrand.StreamWord(sc, 3)
			hi, lo = bits.Mul64(xrand.Draw3(s0, s1, s3), deg)
			switch {
			case lo < deg:
				in = k.pullsFrom(u, 2)
			case has(curw, adj[o+int(hi)]):
				in = true
			case b > 3:
				in = k.pullsFrom(u, 3)
			}
		}
		if in {
			hits |= 1 << j
			vol += int(deg)
		}
	}
	return w | hits, vol
}

// has reports whether vertex t is a member of the set with words words.
func has(words []uint64, t int32) bool {
	return words[uint32(t)>>6]>>(uint32(t)&63)&1 != 0
}

// pullsFrom decides u from its pull i on, after i pulls that missed, and
// reports whether one of the remaining pulls lies in A_t. It reads u's
// (round, u) stream positioned after i draws (xrand.StreamAt) and stops
// at the first hit: the rest of the stream is never read anywhere. A
// closed kernel's bipsWord calls it for a pull that fell into Lemire's
// rejection tail, and for the pulls after the third; its rejection loop
// is xrand.(*RNG).Uint64nTail. Any other kernel decides every candidate
// here from i = 0, in the one fixed order: the fractional-branch
// Bernoulli, then per pull the lazy coin and Lemire's multiply.
func (k *Kernel) pullsFrom(u, i int) bool {
	key := streamKey(k.round, u)
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
	nbrs := k.g.Neighbors(u)
	deg, cur, lazy := uint64(len(nbrs)), k.cur, k.par.Lazy
	for ; i < b; i++ {
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
			w, v := k.bipsWord(wi, c)
			next.SetWord(wi, w)
			vol += v
			for base := wi * 64; w != 0; w &= w - 1 {
				list = append(list, int32(base+bits.TrailingZeros64(w)))
			}
		}
	} else {
		for _, u := range cand {
			if w, v := k.bipsWord(int(u)>>6, 1<<(uint32(u)&63)); w != 0 {
				list = append(list, u)
				vol += v
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

// bipsDense re-decides every vertex in one scan, a word at a time: each
// next word is built by bipsWord and stored once, and the frontier count
// and volume are summed on the way. The sets then swap, and the old
// frontier is cleared out of what is now next (zero-after-fold).
func (k *Kernel) bipsDense() {
	next, n := k.next, k.g.N()
	frontierN, vol := 0, 0
	for wi := 0; wi < next.WordCount(); wi++ {
		w, v := k.bipsWord(wi, wordMask(wi, n))
		next.SetWord(wi, w)
		frontierN += bits.OnesCount64(w)
		vol += v
	}
	k.cur, k.next = next, k.cur
	k.next.Reset()
	k.frontierN = frontierN
	k.frontierVol = vol
	k.curListOK = false
}

// bipsComplement runs a wide round on the complement U = V∖A_t, the
// uninfected. A vertex with no neighbour in U pulls only members of A_t
// and joins A_{t+1} for certain; under Lazy a self-pull of a member of U
// misses too. So only N(U), plus U itself under Lazy, can fail. The round
// marks those candidates in next, decides them through bipsWord a word at
// a time, and stores each next word as all of the word's vertices minus
// its failures. The frontier count and the exact volume are n and 2m
// minus the failures' count and degrees. The round costs
// Θ(n/64 + vol(U)) and decides every vertex as bipsDense does; like it,
// it swaps the sets and resets the old frontier (zero-after-fold).
func (k *Kernel) bipsComplement() {
	off, adj := k.g.CSR()
	n, lazy := k.g.N(), k.par.Lazy
	curw, nextw := k.cur.Words(), k.next.Words()
	for wi, w := range curw {
		for u := ^w & wordMask(wi, n); u != 0; u &= u - 1 {
			v := wi*64 + bits.TrailingZeros64(u)
			if lazy {
				nextw[wi] |= u & -u
			}
			for _, t := range adj[off[v]:off[v+1]] {
				nextw[uint32(t)>>6] |= 1 << (uint32(t) & 63)
			}
		}
	}
	failN, failVol := 0, 0
	for wi, c := range nextw {
		var fail uint64
		if c != 0 {
			w, _ := k.bipsWord(wi, c)
			fail = c &^ w
			failN += bits.OnesCount64(fail)
			for f := fail; f != 0; f &= f - 1 {
				v := wi*64 + bits.TrailingZeros64(f)
				failVol += int(off[v+1] - off[v])
			}
		}
		nextw[wi] = wordMask(wi, n) &^ fail
	}
	k.cur, k.next = k.next, k.cur
	k.next.Reset()
	k.frontierN = n - failN
	k.frontierVol = len(adj) - failVol
	k.curListOK = false
}

// wordMask is the mask of the vertices below n in bitset word wi: all
// ones but in the last partial word.
func wordMask(wi, n int) uint64 {
	if rem := n - wi*64; rem < 64 {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}
