package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/obs"
	"github.com/repro/cobra/internal/xrand"
)

func testSpec() Spec {
	return Spec{
		Graph:   "ba:600:3",
		Process: "cobra",
		Branch:  2,
		Trials:  40,
		Seed:    11,
	}
}

func runCampaign(t *testing.T, spec Spec, cache *Cache) ([]TrialResult, *Aggregate) {
	t.Helper()
	c, err := Compile(spec, cache)
	if err != nil {
		t.Fatal(err)
	}
	var results []TrialResult
	agg, err := c.Run(context.Background(), func(r TrialResult) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	return results, agg
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Graph = "nope:4" },
		func(s *Spec) { s.Process = "walk" },
		func(s *Spec) { s.Branch = 0 },
		func(s *Spec) { s.Rho = 2 },
		func(s *Spec) { s.Rho = math.NaN() }, // NaN evades range comparisons
		func(s *Spec) { s.Rho = math.Inf(-1) },
		func(s *Spec) { s.Start = -1 },
		func(s *Spec) { s.Trials = 0 },
		func(s *Spec) { s.MaxRounds = -5 },
	}
	for i, mutate := range bad {
		s := testSpec()
		mutate(&s)
		if err := s.Validate(); !errors.Is(err, ErrInput) {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
	// Start range is only checkable after compilation.
	s := testSpec()
	s.Start = 600
	if _, err := Compile(s, nil); !errors.Is(err, ErrInput) {
		t.Fatal("out-of-range start accepted")
	}
}

// Cache invisibility covers the grammar too: a spec compiles with a graph
// cache iff it compiles without one, because both paths read the one
// graphspec grammar (the cache keys on Canonical, the uncached path
// calls Parse). Spaced and upper-case spellings are accepted alike, and
// extra arguments rejected alike.
func TestCompileGrammarIgnoresCache(t *testing.T) {
	for _, graph := range []string{"complete: 64", "COMPLETE :64", "complete:64:7"} {
		spec := Spec{Graph: graph, Process: "bips", Branch: 2, Trials: 1, Seed: 3}
		_, errNil := Compile(spec, nil)
		_, errCache := Compile(spec, NewCache(1))
		if (errNil == nil) != (errCache == nil) {
			t.Fatalf("%q: Compile without cache = %v, with cache = %v", graph, errNil, errCache)
		}
		if want := !strings.HasSuffix(graph, ":7"); (errNil == nil) != want {
			t.Fatalf("%q: Compile = %v, want accepted=%v", graph, errNil, want)
		}
	}
}

// An oversize graph spec fails at compile time, with or without a cache,
// before any graph is built: graphspec's size rule rejects it in
// Canonical, so cobrad answers 400 at submission.
func TestCompileRejectsOversizeGraphs(t *testing.T) {
	for _, graph := range []string{"hypercube:30", "complete:100000", "er:100000:0.5", "torus:4096:4096"} {
		spec := Spec{Graph: graph, Process: "cobra", Branch: 2, Trials: 1, Seed: 1}
		start := time.Now()
		_, errNil := Compile(spec, nil)
		_, errCache := Compile(spec, NewCache(1))
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s: rejecting took %v", graph, el)
		}
		for _, err := range []error{errNil, errCache} {
			if !errors.Is(err, ErrInput) || !strings.Contains(fmt.Sprint(err), "n+m") {
				t.Errorf("%s: Compile = %v, want an ErrInput naming n+m", graph, err)
			}
		}
	}
}

// The determinism contract, clause by clause: identical per-trial results
// and identical aggregates across worker counts {1, 2, GOMAXPROCS}, and
// across cold vs warm graph cache.
func TestCampaignDeterminismAcrossWorkersAndCache(t *testing.T) {
	for _, process := range []string{"cobra", "bips"} {
		spec := testSpec()
		spec.Process = process

		spec.Workers = 1
		baseline, baseAgg := runCampaign(t, spec, nil)
		if len(baseline) != spec.Trials {
			t.Fatalf("%s: %d results for %d trials", process, len(baseline), spec.Trials)
		}
		for i, r := range baseline {
			if r.Trial != i {
				t.Fatalf("%s: results out of trial order at %d: %+v", process, i, r)
			}
		}

		cache := NewCache(4)
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			for pass, label := range []string{"cold", "warm"} {
				_ = pass
				spec.Workers = workers
				results, agg := runCampaign(t, spec, cache)
				if len(results) != len(baseline) {
					t.Fatalf("%s workers=%d %s: result count", process, workers, label)
				}
				for i := range results {
					if results[i] != baseline[i] {
						t.Fatalf("%s workers=%d %s cache: trial %d differs: %+v vs %+v",
							process, workers, label, i, results[i], baseline[i])
					}
				}
				if *agg != *baseAgg {
					t.Fatalf("%s workers=%d %s cache: aggregate differs: %+v vs %+v",
						process, workers, label, *agg, *baseAgg)
				}
			}
		}
		hits, misses, _ := cache.Stats()
		if misses != 1 || hits < 5 {
			t.Fatalf("%s: cache hits=%d misses=%d, want 1 miss and >=5 hits", process, hits, misses)
		}
	}
}

// The batch path must reproduce the naive library loop (sim.Runner +
// core.CoverTime / bips.InfectionTime derivations) bit for bit.
func TestCampaignMatchesNaiveLibraryLoop(t *testing.T) {
	spec := testSpec()
	g, err := graphspec.Parse(spec.Graph, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}

	results, _ := runCampaign(t, spec, nil)
	cfg := core.Config{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy}
	for k := 0; k < spec.Trials; k++ {
		want, err := core.CoverTime(g, cfg, spec.Start, xrand.NewStream(spec.Seed, uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if results[k].Rounds != want {
			t.Fatalf("cobra trial %d: batch %d vs library %d", k, results[k].Rounds, want)
		}
	}

	spec.Process = "bips"
	results, _ = runCampaign(t, spec, nil)
	bcfg := bips.Config{Branch: spec.Branch, Rho: spec.Rho, Lazy: spec.Lazy}
	for k := 0; k < spec.Trials; k++ {
		want, err := bips.InfectionTime(g, bcfg, spec.Start, xrand.NewStream(spec.Seed, uint64(k)))
		if err != nil {
			t.Fatal(err)
		}
		if results[k].Rounds != want {
			t.Fatalf("bips trial %d: batch %d vs library %d", k, results[k].Rounds, want)
		}
	}
}

// Round-limit failures surface as errors and stop the campaign early.
func TestCampaignRoundLimitError(t *testing.T) {
	spec := testSpec()
	spec.Graph = "path:400"
	spec.MaxRounds = 2 // a 400-path cannot cover in 2 rounds
	spec.Workers = 4
	c, err := Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(context.Background(), nil)
	if !errors.Is(err, ErrRoundLimit) {
		t.Fatalf("want ErrRoundLimit, got %v", err)
	}
	if !strings.Contains(err.Error(), "trial ") {
		t.Fatalf("error lost its trial index: %v", err)
	}
}

func TestCampaignContextCancel(t *testing.T) {
	spec := testSpec()
	spec.Trials = 100000
	c, err := Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	_, err = c.Run(ctx, func(TrialResult) {
		n++
		if n == 5 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCacheEviction(t *testing.T) {
	cache := NewCache(2)
	for _, spec := range []string{"cycle:64", "cycle:65", "cycle:66"} {
		if _, err := cache.GetOrBuild(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, size := cache.Stats(); size != 2 {
		t.Fatalf("cache size %d, want 2", size)
	}
	// cycle:64 was evicted (LRU), cycle:66 is resident.
	if _, err := cache.GetOrBuild("cycle:66", 1); err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("hits=%d misses=%d, want 1/3", hits, misses)
	}
	// Same spec, different seed: distinct key (random families differ).
	if _, err := cache.GetOrBuild("cycle:66", 2); err != nil {
		t.Fatal(err)
	}
	if _, misses2, _ := cache.Stats(); misses2 != 4 {
		t.Fatalf("seed not part of key: misses=%d", misses2)
	}
	// Bad specs never enter the cache.
	if _, err := cache.GetOrBuild("bogus:1", 1); !errors.Is(err, graphspec.ErrSpec) {
		t.Fatal("bogus spec accepted")
	}
}

func TestCacheConcurrentSingleBuild(t *testing.T) {
	cache := NewCache(4)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := cache.GetOrBuild("ws:2000:6:0.1", 3)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := cache.Stats()
	if misses != 1 || hits != 7 || size != 1 {
		t.Fatalf("hits=%d misses=%d size=%d, want 7/1/1", hits, misses, size)
	}
}

// The compile histogram observes each build a miss starts: a cold compile
// once, a hit never, a build that fails once, and a spec Canonical
// rejects never (nothing is built).
func TestCacheCompileHistogram(t *testing.T) {
	cache := NewCache(4)
	cache.compile = obs.NewRegistry().Histogram("compile_seconds", "test", obs.ExpBuckets(0.001, 2, 4))
	want := int64(0)
	check := func(step string) {
		t.Helper()
		if got := cache.compile.Count(); got != want {
			t.Fatalf("%s: %d compile samples, want %d", step, got, want)
		}
	}
	if _, err := cache.GetOrBuild("cycle:64", 1); err != nil {
		t.Fatal(err)
	}
	want++
	check("cold compile")
	if _, err := cache.GetOrBuild("cycle: 64", 1); err != nil {
		t.Fatal(err)
	}
	check("cache hit")
	if _, err := cache.GetOrBuild("cycle:2", 1); !errors.Is(err, graphspec.ErrSpec) {
		t.Fatalf("cycle:2 built: %v", err)
	}
	want++
	check("failed build")
	if _, err := cache.GetOrBuild("bogus:1", 1); !errors.Is(err, graphspec.ErrSpec) {
		t.Fatalf("bogus:1 accepted: %v", err)
	}
	check("rejected spec")
	// A library cache carries no histogram and still builds.
	if _, err := NewCache(1).GetOrBuild("cycle:64", 1); err != nil {
		t.Fatal(err)
	}
}
