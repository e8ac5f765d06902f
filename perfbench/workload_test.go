package main

import (
	"bytes"
	"math"
	"testing"

	"github.com/repro/cobra/internal/graphspec"
)

func jobsOf(t *testing.T, workload string, seed uint64, n int) []Job {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = g.job(i)
	}
	return jobs
}

func TestSameSeedSameJobs(t *testing.T) {
	for _, w := range workloadNames {
		a, b := jobsOf(t, w, 7, 200), jobsOf(t, w, 7, 200)
		for i := range a {
			if !bytes.Equal(a[i].Body(), b[i].Body()) || a[i].Events != b[i].Events || a[i].Reread != b[i].Reread {
				t.Fatalf("%s: job %d differs between two generations from seed 7", w, i)
			}
		}
	}
}

func TestDifferentSeedDifferentJobs(t *testing.T) {
	for _, w := range workloadNames {
		a, b := jobsOf(t, w, 1, 200), jobsOf(t, w, 2, 200)
		starts, kinds := 0, 0
		for i := range a {
			if a[i].Cells()[0].Start != b[i].Cells()[0].Start {
				starts++
			}
			if a[i].Path() != b[i].Path() || a[i].Events != b[i].Events || a[i].Reread != b[i].Reread {
				kinds++
			}
		}
		if starts < 150 {
			t.Errorf("%s: only %d of 200 start vertices differ between seeds 1 and 2", w, starts)
		}
		if w == smallJobs && kinds == 0 {
			t.Errorf("small-jobs: seeds 1 and 2 drew the same mix")
		}
	}
}

func TestSmallJobsMix(t *testing.T) {
	jobs := jobsOf(t, smallJobs, 3, 2000)
	var sweeps, events, rereads int
	for i, j := range jobs {
		if j.Sweep != nil {
			sweeps++
			if j.Sweep.CellWorkers*j.Sweep.Workers != 1 {
				t.Fatalf("job %d: a small sweep must use one compute goroutine", i)
			}
		}
		if j.Events {
			events++
		}
		if j.Reread >= 0 {
			rereads++
			if j.Reread >= i {
				t.Fatalf("job %d re-reads job %d, which is not earlier", i, j.Reread)
			}
		}
		if j.Trials() > 6 {
			t.Fatalf("job %d has %d trials; small jobs must stay small", i, j.Trials())
		}
	}
	for name, got := range map[string]struct {
		n     int
		share float64
	}{"sweeps": {sweeps, smallSweepShare}, "events": {events, smallEventsShare}, "rereads": {rereads, smallRereadShare}} {
		if math.Abs(float64(got.n)/2000-got.share) > 0.05 {
			t.Errorf("%s: %d of 2000 jobs, want a share near %.2f", name, got.n, got.share)
		}
	}
}

func TestWarmupCoversEveryGraph(t *testing.T) {
	for _, w := range workloadNames {
		g, _ := newGenerator(w, 5)
		warm := g.warmup()
		if warm.TrialsPerCell() != 1 {
			t.Errorf("%s: warm-up runs %d trials per cell, want 1", w, warm.TrialsPerCell())
		}
		seen := map[string]bool{}
		for _, c := range warm.Cells() {
			seen[c.Graph] = true
		}
		for _, gs := range g.graphs() {
			if !seen[gs] {
				t.Errorf("%s: warm-up does not compile %s", w, gs)
			}
		}
	}
}

func TestSpecSizeMatchesBuiltGraphs(t *testing.T) {
	for _, spec := range fleetGraphs {
		g, err := graphspec.Parse(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, m := specSize(spec)
		if n != g.N() || math.Abs(float64(m-g.M())) > 9 {
			t.Errorf("%s: specSize (%d, %d), built graph (%d, %d)", spec, n, m, g.N(), g.M())
		}
	}
	if got := minVertices(paperGraphs); got != 16384 {
		t.Errorf("minVertices(paper graphs) = %d, want 16384", got)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newGenerator("nope", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
