package engine

import (
	"errors"
	"testing"

	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/xrand"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Branch: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Branch: 0},
		{Branch: 1, Rho: -0.5},
		{Branch: 1, Rho: 1.5},
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrConfig) {
			t.Fatalf("%+v accepted", p)
		}
	}
}

func TestConstructorsReject(t *testing.T) {
	g := graph.Cycle(8)
	if _, err := NewCobra(g, Params{Branch: 0}, []int{0}, 1); !errors.Is(err, ErrConfig) {
		t.Fatal("bad config accepted")
	}
	if _, err := NewCobra(g, Params{Branch: 2}, nil, 1); !errors.Is(err, ErrStart) {
		t.Fatal("empty start accepted")
	}
	if _, err := NewCobra(g, Params{Branch: 2}, []int{8}, 1); !errors.Is(err, ErrStart) {
		t.Fatal("out-of-range start accepted")
	}
	if _, err := NewBips(g, Params{Branch: 2}, -1, 1); !errors.Is(err, ErrStart) {
		t.Fatal("bad source accepted")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	disc := b.MustBuild("disc")
	if _, err := NewCobra(disc, Params{Branch: 2}, []int{0}, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatal("disconnected accepted")
	}
	if _, err := NewBips(disc, Params{Branch: 2}, 0, 1); !errors.Is(err, ErrDisconnected) {
		t.Fatal("disconnected accepted (bips)")
	}
}

// RunCapped is the one capped run loop (core, bips and batch call it):
// a kernel stopped at the cap has run exactly limit rounds and reports
// the cap under the caller's sentinel in the one message form, and a
// kernel that completes first stops at its completion round with nil.
func TestRunCapped(t *testing.T) {
	sentinel := errors.New("test: round cap")
	g := graph.Cycle(64)
	build := map[Kind]func() *Kernel{
		Cobra: func() *Kernel {
			k, err := NewCobra(g, Params{Branch: 2}, []int{0}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return k
		},
		Bips: func() *Kernel {
			k, err := NewBips(g, Params{Branch: 2}, 0, 7)
			if err != nil {
				t.Fatal(err)
			}
			return k
		},
	}
	for kind, fresh := range build {
		k := fresh()
		err := k.RunCapped(3, sentinel)
		if !errors.Is(err, sentinel) || k.Round() != 3 {
			t.Fatalf("kind %d: capped at round %d with %v, want round 3 and the sentinel", kind, k.Round(), err)
		}
		if want := "test: round cap: 3 rounds on cycle-64"; err.Error() != want {
			t.Fatalf("kind %d: cap message %q, want %q", kind, err, want)
		}

		ref := fresh() // the same seed: the same trajectory
		for !ref.Complete() {
			ref.Step()
		}
		done := ref.Round()
		for _, limit := range []int{done, done + 1, 1 << 30} {
			k := fresh()
			if err := k.RunCapped(limit, sentinel); err != nil || k.Round() != done || !k.Complete() {
				t.Fatalf("kind %d, limit %d: stopped at round %d (complete %v) with %v, want nil at round %d",
					kind, limit, k.Round(), k.Complete(), err, done)
			}
		}
		if k := fresh(); k.RunCapped(done-1, sentinel) == nil || k.Round() != done-1 {
			t.Fatalf("kind %d: a cap one round before completion did not stop the run at round %d", kind, done-1)
		}
	}
}

// The adaptive policy must actually exercise both representations on a
// run that starts narrow and goes wide.
func TestAdaptiveUsesBothRepresentations(t *testing.T) {
	g := graph.Hypercube(10) // n = 1024
	k, err := NewCobra(g, Params{Branch: 2}, []int{0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000 && !k.Complete(); r++ {
		k.Step()
	}
	if !k.Complete() {
		t.Fatal("did not cover")
	}
	if k.SparseRounds() == 0 || k.TiledRounds() == 0 {
		t.Fatalf("adaptive run used sparse=%d tiled=%d rounds; want both > 0",
			k.SparseRounds(), k.TiledRounds())
	}
}

// Forced modes must report only their own representation.
func TestForcedModesAreForced(t *testing.T) {
	g := graph.Complete(64)
	for _, tc := range []struct {
		mode Mode
		name string
	}{{ForceSparse, "sparse"}, {ForceDense, "dense"}} {
		k, err := NewCobra(g, Params{Branch: 2, Mode: tc.mode}, []int{0}, 3)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 500 && !k.Complete(); r++ {
			k.Step()
		}
		switch tc.mode {
		case ForceSparse:
			if k.TiledRounds() != 0 {
				t.Fatalf("%s: %d dense rounds", tc.name, k.TiledRounds())
			}
		case ForceDense:
			if k.SparseRounds() != 0 {
				t.Fatalf("%s: %d sparse rounds", tc.name, k.SparseRounds())
			}
		}
	}
}

// Frontier bookkeeping (count, volume, bitset, covered) must agree with a
// from-scratch recount in every representation, every round.
func TestKernelBookkeepingInvariants(t *testing.T) {
	g, err := graph.BarabasiAlbert(300, 3, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Adaptive, ForceSparse, ForceDense} {
		k, err := NewCobra(g, Params{Branch: 2, Mode: mode}, []int{0, 5}, 11)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 60 && !k.Complete(); r++ {
			k.Step()
			if got, want := k.FrontierCount(), k.Frontier().Count(); got != want {
				t.Fatalf("mode %d round %d: FrontierCount %d != popcount %d", mode, r+1, got, want)
			}
			vol := 0
			k.Frontier().ForEach(func(v int) { vol += g.Degree(v) })
			if got := k.FrontierVolume(); got != vol {
				t.Fatalf("mode %d round %d: FrontierVolume %d != recount %d", mode, r+1, got, vol)
			}
			if got, want := k.CoveredCount(), k.Covered().Count(); got != want {
				t.Fatalf("mode %d round %d: CoveredCount %d != popcount %d", mode, r+1, got, want)
			}
		}
	}
}

func TestInstallFrontier(t *testing.T) {
	g := graph.Cycle(10)
	k, err := NewBips(g, Params{Branch: 2}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	k.Step()
	k.InstallFrontier([]int{0, 3, 7, 3}) // duplicate 3 must be ignored
	if k.Round() != 2 {
		t.Fatalf("round = %d after install", k.Round())
	}
	if k.FrontierCount() != 3 || k.Frontier().Count() != 3 {
		t.Fatalf("frontier count %d/%d", k.FrontierCount(), k.Frontier().Count())
	}
	if k.FrontierVolume() != 6 {
		t.Fatalf("frontier volume %d, want 6", k.FrontierVolume())
	}
	for _, v := range []int{0, 3, 7} {
		if !k.Frontier().Contains(v) {
			t.Fatalf("vertex %d missing after install", v)
		}
	}
	// Subsequent plain steps keep working from the installed frontier.
	k.Step()
	if k.Round() != 3 {
		t.Fatalf("round = %d after step", k.Round())
	}
	if !k.Frontier().Contains(0) {
		t.Fatal("source lost infection after install+step")
	}
}

// COBRA transmissions/coalescences must satisfy the defining identity in
// every representation.
func TestSentCoalescedIdentity(t *testing.T) {
	g := graph.Complete(200)
	for _, mode := range []Mode{ForceSparse, ForceDense, Adaptive} {
		k, err := NewCobra(g, Params{Branch: 2, Mode: mode}, []int{0}, 9)
		if err != nil {
			t.Fatal(err)
		}
		var sumActive int64
		for !k.Complete() {
			k.Step()
			sumActive += int64(k.FrontierCount())
		}
		if got, want := k.Coalesced(), k.Sent()-sumActive; got != want {
			t.Fatalf("mode %d: Coalesced = %d, want Sent−Σ|C_t| = %d", mode, got, want)
		}
	}
}

// A draw at a degree-0 vertex must panic rather than return a neighbour
// that does not exist. K_1 is the only connected graph with such a vertex,
// and only COBRA draws there: BIPS never draws at its source.
func TestDrawAtIsolatedVertexPanics(t *testing.T) {
	g := graph.NewBuilder(1).MustBuild("K1")
	for _, mode := range []Mode{ForceSparse, ForceDense} {
		k, err := NewCobra(g, Params{Branch: 1, Mode: mode}, []int{0}, 1)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mode %d: a push from an isolated vertex did not panic", mode)
				}
			}()
			k.Step()
		}()
	}
}

// DefaultMaxRounds is 64·n·max(1, ⌈log₂ n⌉)+64, pinned where ⌈log₂ n⌉
// steps and at the small n where max(1, ·) decides.
func TestDefaultMaxRounds(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 128}, {2, 192}, {3, 448}, {4, 576}, {5, 1024},
		{1023, 654784}, {1024, 655424}, {1025, 721664}, {1 << 20, 1342177344},
	} {
		if got := DefaultMaxRounds(c.n); got != c.want {
			t.Fatalf("DefaultMaxRounds(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
