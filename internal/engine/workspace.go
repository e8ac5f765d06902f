package engine

import (
	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/graph"
)

// Workspace is a reusable arena for kernel state, the amortization layer
// under the batch trial harness (internal/batch). A fresh kernel on an
// n-vertex graph allocates Θ(n) bitsets, the stamp array, and the member
// slices; across a campaign of thousands of trials on one shared graph
// those costs dominate the simulation itself. Constructing kernels
// through a Workspace instead reuses every buffer (bitsets are reset,
// slices retain their grown capacity, the stamp array carries its epoch
// across trials). Connectivity is not the workspace's concern: the graph
// memoizes its own check (graph.Graph.IsConnected).
//
// Reuse contract:
//
//   - A Workspace is single-owner: it backs at most one live kernel at a
//     time, and constructing a new kernel through it invalidates the
//     previous one. One Workspace per worker goroutine.
//   - Trajectories are unchanged: a kernel built with NewCobraWith /
//     NewBipsWith produces bit-for-bit the trajectory of one built with
//     NewCobra / NewBips from the same (graph, params, start, seed) —
//     workspace reuse is invisible to the trajectory.
//   - Graphs of different sizes may share a Workspace; buffers are
//     reallocated when the vertex count changes and reused otherwise.
type Workspace struct {
	n    int    // capacity the buffers are sized for
	kern Kernel // the (single) kernel backed by this workspace

	cur, next        *bitset.Set
	covered          *bitset.Set
	stamp            []uint32
	epoch            uint32
	curList, newList []int32
	candList         []int32
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by the
// first kernel constructed through it.
func NewWorkspace() *Workspace { return &Workspace{} }

// NewCobraWith is NewCobra constructing into ws. The previous kernel built
// through ws (if any) becomes invalid.
func NewCobraWith(ws *Workspace, g *graph.Graph, par Params, start []int, seed uint64) (*Kernel, error) {
	return newCobra(g, par, start, seed, ws)
}

// NewBipsWith is NewBips constructing into ws. The previous kernel built
// through ws (if any) becomes invalid.
func NewBipsWith(ws *Workspace, g *graph.Graph, par Params, source int, seed uint64) (*Kernel, error) {
	return newBips(g, par, source, seed, ws)
}

// reclaim pulls grown buffers back from the previous kernel (appends may
// have reallocated the slices it was handed) and carries its stamp epoch
// forward so stale stamps from earlier trials can never read as current.
func (ws *Workspace) reclaim() {
	k := &ws.kern
	if k.g == nil {
		return
	}
	ws.curList, ws.newList, ws.candList = k.curList, k.newList, k.candList
	ws.epoch = k.epoch
}

// acquire resets ws for a kernel on an n-vertex graph and hands its
// buffers to ws.kern, which the caller finishes initialising.
func (ws *Workspace) acquire(n int, kind Kind) *Kernel {
	ws.reclaim()
	if ws.n != n {
		ws.cur = bitset.New(n)
		ws.next = bitset.New(n)
		ws.stamp = make([]uint32, n)
		ws.epoch = 0
		ws.covered = nil
		ws.curList = ws.curList[:0]
		ws.newList = ws.newList[:0]
		ws.candList = ws.candList[:0]
		ws.n = n
	} else {
		// A BIPS kernel leaves its previous frontier in next, while a
		// COBRA kernel's dense fold needs next all-zero (zero-after-fold).
		ws.cur.Reset()
		ws.next.Reset()
	}
	if kind == Cobra {
		if ws.covered == nil {
			ws.covered = bitset.New(n)
		} else {
			ws.covered.Reset()
		}
	}

	k := &ws.kern
	*k = Kernel{
		cur:      ws.cur,
		next:     ws.next,
		stamp:    ws.stamp,
		epoch:    ws.epoch,
		curList:  ws.curList[:0],
		newList:  ws.newList[:0],
		candList: ws.candList[:0],
	}
	if kind == Cobra {
		k.covered = ws.covered
	}
	return k
}
