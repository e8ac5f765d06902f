package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/xrand"
)

// The three workloads. Each is a pure function of the seed: job i is
// drawn from the stream xrand.NewStream(seed, i), so the job list does
// not depend on how many jobs a run manages to send, and the program
// under test only ever sees the generated specs. The seed picks start
// vertices and the small-jobs mix; every job carries the same master
// seed, masterSeed, because a spec's seed also generates its graph, and
// graph instances whose cover times differ would move the metrics
// between seeds for reasons that are not the program's.
const (
	paperSweep = "paper-sweep"
	smallJobs  = "small-jobs"
	fleetSweep = "fleet-sweep"
)

var workloadNames = []string{paperSweep, smallJobs, fleetSweep}

// masterSeed is every job's spec seed: the CI goldens' seed, so the
// golden graph and the small-jobs graph are one cache entry.
const masterSeed = 1

var (
	// paperGraphs are the paper's three regimes at full size: an expander
	// whose working set exceeds L2, a small-gap torus that fits in L2, and
	// a heavy-tailed graph whose dmax drives the general-graph bound.
	paperGraphs = []string{"rreg:262144:3", "torus:128:128", "ba:65536:3"}
	// smallGraph is the CI golden graph; small jobs run on it.
	smallGraph = "rreg:1024:3"
	// fleetGraphs are four 1024-vertex families, so fleet cells are short
	// and the lease protocol is a visible share of the job.
	fleetGraphs = []string{"rreg:1024:3", "torus:32:32", "hypercube:10", "ba:1024:3"}
)

const (
	// paperTrials is the trials per cell of a paper-sweep job (6 cells).
	paperTrials = 3
	// fleetTrials is the trials per cell of a fleet-sweep job (16 cells).
	fleetTrials = 64
	// fleetOpenCells is the fleet-sweep's cell_workers: how many cells
	// the coordinator offers at once. All of them, so a worker that
	// completes a cell finds another open until the job's last cells.
	// With cobrad's default of 2, one per worker, most completions were
	// followed by an empty acquire and a poll interval asleep, and wall
	// times of identical jobs in one run ranged from 585 to 1592 ms. The
	// coordinator's cell workers only wait on leases; trials run on the
	// workers alone.
	fleetOpenCells = 16
	// smallRate is the open-loop send rate of small-jobs in jobs per
	// second, about half of the measured capacity of a durable server on
	// a 2-core host (see README.md).
	smallRate = 100
	// smallInflight caps small-jobs' in-flight jobs; a due job waits for
	// a slot, and that wait counts in its latency.
	smallInflight = 2
	// Shares of the small-jobs mix: 2-cell sweeps (the rest are
	// campaigns), jobs also followed over /events, and jobs that re-read
	// an earlier job's results once they finish.
	smallSweepShare  = 0.3
	smallEventsShare = 0.1
	smallRereadShare = 0.1
)

// Job is one generated job: exactly one of Campaign and Sweep is set.
type Job struct {
	Index    int
	Campaign *batch.Spec
	Sweep    *batch.SweepSpec
	// Events asks the client to follow the job's /events stream as well.
	Events bool
	// Reread is the index of an earlier job whose results are re-read
	// after this one finishes, or -1.
	Reread int
}

// Path is the collection the job is submitted to.
func (j Job) Path() string {
	if j.Sweep != nil {
		return "/v1/sweeps"
	}
	return "/v1/campaigns"
}

// Body is the submission's JSON body.
func (j Job) Body() []byte {
	var v any = j.Campaign
	if j.Sweep != nil {
		v = j.Sweep
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: job encode: " + err.Error())
	}
	return b
}

// Cells is the job's cell list in result order (one cell for a campaign).
func (j Job) Cells() []batch.Spec {
	if j.Sweep != nil {
		return j.Sweep.Cells()
	}
	return []batch.Spec{*j.Campaign}
}

// TrialsPerCell is the trial count of every cell.
func (j Job) TrialsPerCell() int {
	if j.Sweep != nil {
		return j.Sweep.Trials
	}
	return j.Campaign.Trials
}

// Trials is the job's total trial count.
func (j Job) Trials() int { return len(j.Cells()) * j.TrialsPerCell() }

// Graphs lists the distinct graph specs the job uses.
func (j Job) Graphs() []string {
	if j.Sweep != nil {
		return j.Sweep.Graphs
	}
	return []string{j.Campaign.Graph}
}

// Seed is the master seed every cell of the job carries.
func (j Job) Seed() uint64 {
	if j.Sweep != nil {
		return j.Sweep.Seed
	}
	return j.Campaign.Seed
}

// Parallelism is how many compute goroutines the job can keep busy:
// concurrent cells times trial workers per cell.
func (j Job) Parallelism() int {
	if j.Sweep != nil {
		return j.Sweep.CellWorkers * j.Sweep.Workers
	}
	return j.Campaign.Workers
}

// generator draws a workload's jobs from a seed.
type generator struct {
	workload string
	seed     uint64
}

func newGenerator(workload string, seed uint64) (generator, error) {
	for _, w := range workloadNames {
		if w == workload {
			return generator{workload: workload, seed: seed}, nil
		}
	}
	return generator{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// job returns job i of the workload.
func (g generator) job(i int) Job {
	r := xrand.NewStream(g.seed, uint64(i))
	job := Job{Index: i, Reread: -1}
	switch g.workload {
	case paperSweep:
		job.Sweep = &batch.SweepSpec{
			Graphs:      paperGraphs,
			Processes:   []string{"cobra", "bips"},
			Branches:    []int{2},
			Start:       r.Intn(minVertices(paperGraphs)),
			Trials:      paperTrials,
			Seed:        masterSeed,
			Workers:     1,
			CellWorkers: 2,
		}
	case fleetSweep:
		job.Sweep = &batch.SweepSpec{
			Graphs:      fleetGraphs,
			Processes:   []string{"cobra", "bips"},
			Branches:    []int{2, 3},
			Start:       r.Intn(minVertices(fleetGraphs)),
			Trials:      fleetTrials,
			Seed:        masterSeed,
			Workers:     1,
			CellWorkers: fleetOpenCells,
		}
	case smallJobs:
		start := r.Intn(1024)
		if r.Float64() < smallSweepShare {
			job.Sweep = &batch.SweepSpec{
				Graphs:      []string{smallGraph},
				Processes:   []string{"cobra"},
				Branches:    []int{2, 3},
				Start:       start,
				Trials:      1 + r.Intn(2),
				Seed:        masterSeed,
				Workers:     1,
				CellWorkers: 1,
			}
		} else {
			job.Campaign = &batch.Spec{
				Graph:   smallGraph,
				Process: "cobra",
				Branch:  2,
				Start:   start,
				Trials:  2 + r.Intn(5),
				Seed:    masterSeed,
				Workers: 1,
			}
		}
		job.Events = r.Float64() < smallEventsShare
		if u := r.Float64(); i > 0 && u < smallRereadShare {
			job.Reread = r.Intn(i)
		}
	}
	return job
}

// warmup is the one-trial job that compiles and caches every graph the
// workload uses; set-up ends when it completes.
func (g generator) warmup() Job {
	job := g.job(0)
	job.Index, job.Events, job.Reread = -1, false, -1
	if job.Sweep != nil {
		s := *job.Sweep
		s.Trials = 1
		job.Sweep = &s
	} else {
		c := *job.Campaign
		c.Trials = 1
		job.Campaign = &c
	}
	return job
}

// graphs lists every distinct graph spec the workload uses, sorted.
func (g generator) graphs() []string {
	var out []string
	switch g.workload {
	case paperSweep:
		out = append(out, paperGraphs...)
	case fleetSweep:
		out = append(out, fleetGraphs...)
	default:
		out = append(out, smallGraph)
	}
	sort.Strings(out)
	return out
}

// minVertices is the smallest vertex count among the graph specs, so a
// start vertex drawn below it is valid on every cell.
func minVertices(specs []string) int {
	min := 0
	for _, s := range specs {
		if n, _ := specSize(s); min == 0 || n < min {
			min = n
		}
	}
	return min
}

// specSize returns the vertex and edge counts of the families the
// workloads use, read off the spec without building the graph (ba's edge
// count is the k·n its generator targets, within k² of the built graph).
func specSize(spec string) (n, m int) {
	f := strings.Split(spec, ":")
	arg := func(i int) int {
		v, err := strconv.Atoi(f[i])
		if err != nil {
			panic("perfbench: bad graph spec " + spec)
		}
		return v
	}
	switch f[0] {
	case "rreg":
		n = arg(1)
		return n, n * arg(2) / 2
	case "torus":
		n = arg(1) * arg(2)
		return n, 2 * n
	case "hypercube":
		n = 1 << arg(1)
		return n, n * arg(1) / 2
	case "ba":
		n = arg(1)
		return n, n * arg(2)
	}
	panic("perfbench: no size rule for " + spec)
}

// workingSetMB is the bytes a trial touches: the CSR arrays (int32
// offsets and both directions of every edge) plus the kernel's four
// frontier bitsets and its per-vertex stamp array.
func workingSetMB(n, m int) float64 {
	return float64(4*(n+1)+8*m+n/2+4*n) / (1 << 20)
}
