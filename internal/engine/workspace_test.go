package engine

import (
	"errors"
	"testing"

	"github.com/repro/cobra/internal/graph"
)

// trajectory runs k to completion (capped) and returns the per-round
// frontier sizes plus the final counters, the full observable state.
func trajectory(t *testing.T, k *Kernel, cap int) (sizes []int, covered int, sent, coal int64) {
	t.Helper()
	sizes = append(sizes, k.FrontierCount())
	for !k.Complete() {
		if k.Round() >= cap {
			t.Fatalf("round cap %d hit", cap)
		}
		k.Step()
		sizes = append(sizes, k.FrontierCount())
	}
	return sizes, k.CoveredCount(), k.Sent(), k.Coalesced()
}

func sameTrajectory(t *testing.T, label string, a, b *Kernel, cap int) {
	t.Helper()
	as, ac, asent, acoal := trajectory(t, a, cap)
	bs, bc, bsent, bcoal := trajectory(t, b, cap)
	if len(as) != len(bs) {
		t.Fatalf("%s: round counts differ: %d vs %d", label, len(as)-1, len(bs)-1)
	}
	for i := range as {
		if as[i] != bs[i] {
			t.Fatalf("%s: frontier size at round %d differs: %d vs %d", label, i, as[i], bs[i])
		}
	}
	if ac != bc || asent != bsent || acoal != bcoal {
		t.Fatalf("%s: final counters differ: covered %d/%d sent %d/%d coalesced %d/%d",
			label, ac, bc, asent, bsent, acoal, bcoal)
	}
}

// A workspace-backed kernel must reproduce the fresh kernel's trajectory
// bit for bit, including on the second, third, ... reuse of the workspace,
// across kinds and across graphs of different sizes.
func TestWorkspaceTrajectoriesMatchFresh(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Hypercube(10),
		graph.Grid(24, 24),
		graph.Cycle(301),
	}
	par := Params{Branch: 2}
	ws := NewWorkspace()
	for trial := 0; trial < 3; trial++ {
		for _, g := range graphs {
			seed := uint64(1000*trial + g.N())

			fresh, err := NewCobra(g, par, []int{0}, seed)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := NewCobraWith(ws, g, par, []int{0}, seed)
			if err != nil {
				t.Fatal(err)
			}
			sameTrajectory(t, "cobra "+g.Name(), fresh, reused, 1<<20)

			freshB, err := NewBips(g, par, 0, seed^0xb1b5)
			if err != nil {
				t.Fatal(err)
			}
			reusedB, err := NewBipsWith(ws, g, par, 0, seed^0xb1b5)
			if err != nil {
				t.Fatal(err)
			}
			sameTrajectory(t, "bips "+g.Name(), freshB, reusedB, 1<<20)
		}
	}
}

// A workspace must re-verify connectivity when handed a different graph,
// and must keep rejecting disconnected graphs on every construction.
func TestWorkspaceConnectivityPerGraph(t *testing.T) {
	ws := NewWorkspace()
	good := graph.Cycle(16)
	if _, err := NewCobraWith(ws, good, Params{Branch: 2}, []int{0}, 1); err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(16)
	for i := 0; i < 7; i++ {
		b.AddEdge(i, i+1)
	}
	b.AddEdge(8, 9)
	disc := b.MustBuild("disc16")
	if _, err := NewCobraWith(ws, disc, Params{Branch: 2}, []int{0}, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("disconnected graph accepted after workspace warm-up: %v", err)
	}
	// The good graph still works afterwards (the cached check is per graph).
	if _, err := NewBipsWith(ws, good, Params{Branch: 2}, 0, 1); err != nil {
		t.Fatal(err)
	}
}
