package engine

import "github.com/repro/cobra/internal/bitset"

// Workspace is a reusable arena for kernel state, the amortization layer
// under the batch trial harness (internal/batch), and the one way a
// kernel is built: NewCobra and NewBips build through a fresh one. A
// fresh kernel on an n-vertex graph allocates three Θ(n)-bit sets
// (frontier, round scratch and, for COBRA, the covered set) and the
// member slices; across a campaign of thousands of trials on one shared
// graph those costs dominate the simulation itself. Constructing kernels
// through one Workspace instead reuses every buffer: the frontier and
// covered sets are reset, the scratch set arrives all-zero from the
// previous kernel (zero-after-fold), and slices retain their grown
// capacity.
// Connectivity is not the workspace's concern: the graph memoizes its own
// check (graph.Graph.IsConnected).
//
// Reuse contract:
//
//   - A Workspace is single-owner: it backs at most one live kernel at a
//     time, and constructing a new kernel through it invalidates the
//     previous one. One Workspace per worker goroutine.
//   - Trajectories are unchanged: a kernel built through a reused
//     Workspace produces bit-for-bit the trajectory of one built through
//     a fresh one from the same (graph, params, start, seed) — workspace
//     reuse is invisible to the trajectory.
//   - Graphs of different sizes may share a Workspace; buffers are
//     reallocated when the vertex count changes and reused otherwise.
type Workspace struct {
	n    int    // capacity the buffers are sized for
	kern Kernel // the (single) kernel backed by this workspace

	cur, next        *bitset.Set
	covered          *bitset.Set
	curList, newList []int32
	candList         []int32
}

// NewWorkspace returns an empty workspace; buffers are sized lazily by the
// first kernel constructed through it.
func NewWorkspace() *Workspace { return &Workspace{} }

// reclaim pulls the buffers back from the previous kernel: appends may
// have reallocated the slices it was handed, and its rounds swap cur and
// next, so the all-zero set is whichever the kernel holds as next.
func (ws *Workspace) reclaim() {
	k := &ws.kern
	if k.g == nil {
		return
	}
	ws.cur, ws.next = k.cur, k.next
	ws.curList, ws.newList, ws.candList = k.curList, k.newList, k.candList
}

// acquire resets ws for a kernel on an n-vertex graph and hands its
// buffers to ws.kern, which the caller finishes initialising.
func (ws *Workspace) acquire(n int, kind Kind) *Kernel {
	ws.reclaim()
	if ws.n != n {
		ws.cur = bitset.New(n)
		ws.next = bitset.New(n)
		ws.covered = nil
		ws.curList = ws.curList[:0]
		ws.newList = ws.newList[:0]
		ws.candList = ws.candList[:0]
		ws.n = n
	} else {
		ws.cur.Reset() // next is already all-zero (zero-after-fold)
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
		curList:  ws.curList[:0],
		newList:  ws.newList[:0],
		candList: ws.candList[:0],
	}
	if kind == Cobra {
		k.covered = ws.covered
	}
	return k
}
