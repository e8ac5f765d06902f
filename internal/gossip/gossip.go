// Package gossip implements the synchronous push broadcast protocol, the
// unrestricted-bandwidth reference point for COBRA: every informed vertex
// pushes to ONE random neighbour per round and — unlike COBRA — remains
// informed forever. Push covers expanders in Θ(log n) rounds but every
// vertex transmits every round once informed, whereas COBRA bounds
// transmissions to b per ACTIVE vertex per round and lets vertices go
// quiet. The E12 baseline experiment quantifies this rounds-vs-messages
// trade-off.
package gossip

import (
	"errors"
	"fmt"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

// Errors returned by the drivers.
var (
	ErrInput      = errors.New("gossip: invalid input")
	ErrRoundLimit = errors.New("gossip: round limit exceeded")
)

// Result summarises one push-broadcast run.
type Result struct {
	// Rounds is the number of rounds until all n vertices were informed.
	Rounds int
	// Messages is the total number of push transmissions sent.
	Messages int64
}

// Push runs the push protocol from start until every vertex is informed.
func Push(g *graph.Graph, start int, rng *xrand.RNG) (Result, error) {
	if start < 0 || start >= g.N() {
		return Result{}, fmt.Errorf("%w: start %d", ErrInput, start)
	}
	if !g.IsConnected() {
		return Result{}, fmt.Errorf("%w: disconnected graph", ErrInput)
	}
	n := g.N()
	informed := bitset.New(n)
	informed.Set(start)
	count := 1
	var res Result
	members := make([]int, 0, n)
	// Push covers any connected graph in O(n log n) rounds w.h.p. (the
	// star is the coupon-collector worst case: only the hub can inform
	// leaves); the kernel's default cap is well above that.
	limit := engine.DefaultMaxRounds(n)

	for count < n {
		if res.Rounds >= limit {
			return res, fmt.Errorf("%w after %d rounds", ErrRoundLimit, res.Rounds)
		}
		members = informed.Members(members[:0])
		for _, u := range members {
			w := g.Neighbor(u, rng.Intn(g.Degree(u)))
			res.Messages++
			if !informed.Contains(w) {
				informed.Set(w)
				count++
			}
		}
		res.Rounds++
	}
	return res, nil
}
