package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"github.com/repro/cobra/internal/xrand"
)

func TestRunBasic(t *testing.T) {
	r := Runner{Seed: 1}
	xs, err := r.Run(10, func(trial int, rng *xrand.RNG) (float64, error) {
		return float64(trial), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if x != float64(i) {
			t.Fatalf("trial %d result %v out of order", i, x)
		}
	}
}

func TestRunValidation(t *testing.T) {
	r := Runner{Seed: 1}
	if _, err := r.Run(0, func(int, *xrand.RNG) (float64, error) { return 0, nil }); !errors.Is(err, ErrInput) {
		t.Fatal("trials=0 accepted")
	}
	if _, err := r.Run(1, nil); !errors.Is(err, ErrInput) {
		t.Fatal("nil fn accepted")
	}
}

func TestRunPropagatesError(t *testing.T) {
	r := Runner{Seed: 1}
	boom := errors.New("boom")
	_, err := r.Run(8, func(trial int, rng *xrand.RNG) (float64, error) {
		if trial == 5 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunJoinsAllErrors(t *testing.T) {
	// Concurrent failures must all surface (errors.Join), each tagged
	// with its trial index, not just the lowest-index one.
	boomA := errors.New("boomA")
	boomB := errors.New("boomB")
	var barrier sync.WaitGroup
	barrier.Add(2)
	_, err := Runner{Seed: 1, Workers: 2}.Run(2, func(trial int, rng *xrand.RNG) (float64, error) {
		// Rendezvous so both trials are in flight before either fails:
		// the fail-fast flag cannot suppress the second error.
		barrier.Done()
		barrier.Wait()
		if trial == 0 {
			return 0, boomA
		}
		return 0, boomB
	})
	if !errors.Is(err, boomA) || !errors.Is(err, boomB) {
		t.Fatalf("lost an error: %v", err)
	}
	if !strings.Contains(err.Error(), "trial 0: boomA") || !strings.Contains(err.Error(), "trial 1: boomB") {
		t.Fatalf("missing trial tags: %v", err)
	}
}

func TestRunAllTrialsFailReportsTrialZero(t *testing.T) {
	// When every trial fails, how many start before the fail-fast flag
	// is seen is not fixed; trial 0 is always claimed first, so its
	// error is always present, tagged, and keeps its identity.
	errA := errors.New("a")
	_, err := Runner{Seed: 1, Workers: 4}.Run(4, func(int, *xrand.RNG) (float64, error) {
		return 0, errA
	})
	if !errors.Is(err, errA) {
		t.Fatalf("lost error identity: %v", err)
	}
	if !strings.Contains(err.Error(), "trial 0: a") {
		t.Fatalf("missing trial tag: %v", err)
	}
}

func TestRunStopsClaimingAfterFailure(t *testing.T) {
	// With one worker, a failure at trial 0 must prevent trials 1.. from
	// running at all.
	ran := 0
	boom := errors.New("boom")
	_, err := Runner{Seed: 1, Workers: 1}.Run(64, func(trial int, rng *xrand.RNG) (float64, error) {
		ran++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran %d trials after failure, want 1", ran)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// Results must not depend on parallelism: trial k's stream is fixed.
	fn := func(trial int, rng *xrand.RNG) (float64, error) {
		return float64(rng.Uint64() % 1000), nil
	}
	seq, err := Runner{Seed: 42, Workers: 1}.Run(64, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Runner{Seed: 42, Workers: 8}.Run(64, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("trial %d: serial %v vs parallel %v", i, seq[i], par[i])
		}
	}
}

func TestRunMeans(t *testing.T) {
	m, err := Runner{Seed: 1}.RunMeans(5, func(trial int, rng *xrand.RNG) (float64, error) {
		return 2, nil
	})
	if err != nil || m != 2 {
		t.Fatalf("mean %v err %v", m, err)
	}
}

// Property: different master seeds give different trial streams (almost
// surely), same master seed gives identical results.
func TestRunSeedProperty(t *testing.T) {
	fn := func(trial int, rng *xrand.RNG) (float64, error) {
		return float64(rng.Uint64()), nil
	}
	f := func(seed uint64) bool {
		a, err1 := Runner{Seed: seed}.Run(4, fn)
		b, err2 := Runner{Seed: seed}.Run(4, fn)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "graph", "n", "cover")
	tb.Note = "a note"
	tb.AddRow("cycle", 100, 52.345678)
	tb.AddRow("complete-graph-long-name", 7, "x")
	out := tb.String()
	for _, want := range []string{"== demo ==", "a note", "graph", "cover", "cycle", "52.3", "complete-graph-long-name"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Header and rows align: every line after the rule has the same
	// column starts; cheap check: rule is at least as long as header.
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("table too short:\n%s", out)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("t", "v")
	tb.AddRow(3.14159265)
	if !strings.Contains(tb.String(), "3.14") {
		t.Fatalf("float not formatted: %s", tb.String())
	}
	tb2 := NewTable("t", "v")
	tb2.AddRow(fmt.Sprintf("%.5f", 3.14159265))
	if !strings.Contains(tb2.String(), "3.14159") {
		t.Fatal("string cell mangled")
	}
}
