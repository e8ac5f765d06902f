// Command cobrasim runs one of the repository's processes (COBRA, BIPS,
// random walk, multiple walks, push gossip) on a graph family and prints
// summary statistics of the cover/infection time over repeated trials.
//
// Usage examples:
//
//	cobrasim -graph rreg:1024:3 -process cobra -trials 50
//	cobrasim -graph hypercube:10 -process cobra -lazy -trials 100
//	cobrasim -graph complete:4096 -process bips -b 1 -rho 0.5
//	cobrasim -graph lollipop:600:400 -process rw -trials 10
//
// Sweep mode expands a parameter grid (graphs x processes x branches x
// rhos) into cells, compiles each distinct graph once, and prints the
// cross-cell summary grid as a table or CSV. -cell-workers keeps that
// many cells open at once, with -cell-workers × -workers goroutines
// claiming their trials (results are identical to sequential — the
// reorder buffer keeps delivery in (cell, trial) order):
//
//	cobrasim -sweep -graphs ws:2048:8:0,ws:2048:8:0.1 -branches 2,3 -trials 50
//	cobrasim -sweep -graphs rreg:1024:3 -processes cobra,bips -format csv
//	cobrasim -sweep -graphs ba:4096:3,ba:8192:3 -cell-workers 4 -trials 100
//
// -format ndjson (cobra/bips and sweeps) writes per-trial records in the
// cobrad wire format — byte-identical to the server's results stream and
// its on-disk journals for the same spec, so a local run can be diffed
// against a cobrad recovery:
//
//	cobrasim -graph rreg:1024:3 -trials 64 -seed 1 -format ndjson \
//	  | diff - <(curl -s cobrad:8080/v1/campaigns/c000001/results)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/gossip"
	"github.com/repro/cobra/internal/graph"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/plot"
	"github.com/repro/cobra/internal/sim"
	"github.com/repro/cobra/internal/stats"
	"github.com/repro/cobra/internal/walk"
	"github.com/repro/cobra/internal/xrand"
)

func main() {
	var (
		graphFlag = flag.String("graph", "rreg:256:3", "graph spec (family:args, see internal/graphspec)")
		process   = flag.String("process", "cobra", "process: cobra | bips | rw | multirw | push")
		branch    = flag.Int("b", 2, "integer branching factor b")
		rho       = flag.Float64("rho", 0, "fractional extra branch probability (b = branch+rho)")
		lazy      = flag.Bool("lazy", false, "lazy selections (needed on bipartite graphs)")
		start     = flag.Int("start", 0, "start vertex (COBRA/walks) or source (BIPS)")
		walkers   = flag.Int("k", 16, "walker count for -process multirw")
		trials    = flag.Int("trials", 25, "number of independent trials")
		seed      = flag.Uint64("seed", 1, "master seed (full run is deterministic in it)")
		workers   = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		trace     = flag.Bool("trace", false, "plot one run's per-round set sizes (cobra/bips only)")
		csvPath   = flag.String("csv", "", "with -trace: also write the per-round series to this CSV file")
		format    = flag.String("format", "table", "output format: table (human summary) | csv (per-trial rows + summary to stderr) | ndjson (cobra/bips only: per-trial records byte-identical to cobrad's results stream and journals, summary to stderr)")
		sweep     = flag.Bool("sweep", false, "sweep mode: run the graphs x processes x branches x rhos grid")
		graphs    = flag.String("graphs", "", "with -sweep: comma-separated graph specs (default: the -graph value)")
		processes = flag.String("processes", "", "with -sweep: comma-separated processes from cobra,bips (default: the -process value)")
		branches  = flag.String("branches", "", "with -sweep: comma-separated integer branch factors (default: the -b value)")
		rhos      = flag.String("rhos", "", "with -sweep: comma-separated rho values (default: the -rho value)")
		cellWs    = flag.Int("cell-workers", 1, "with -sweep: open cells, each adding -workers trial goroutines (1 = one cell at a time; never affects results)")
	)
	flag.Parse()
	if *format != "table" && *format != "csv" && *format != "ndjson" {
		fatal(fmt.Errorf("unknown -format %q (table | csv | ndjson)", *format))
	}
	if *trace && *format != "table" {
		fatal(fmt.Errorf("-trace renders a chart, not trial rows; use its -csv flag for the per-round series"))
	}
	if *sweep {
		if *trace {
			fatal(fmt.Errorf("-trace and -sweep are mutually exclusive"))
		}
		spec, err := sweepSpec(*graphs, *processes, *branches, *rhos, sweepDefaults{
			graph: *graphFlag, process: *process, branch: *branch, rho: *rho,
			lazy: *lazy, start: *start, trials: *trials, seed: *seed,
			workers: *workers, cellWorkers: *cellWs,
		})
		if err != nil {
			fatal(err)
		}
		if err := runSweep(spec, *format); err != nil {
			fatal(err)
		}
		return
	}

	// COBRA and BIPS trials run through the batch subsystem in every
	// format: the computation cobrad runs for the same spec. Trial k's
	// kernel seed is NewStream(seed, k).Uint64(), the seed sim.Runner
	// hands core.CoverTime and bips.InfectionTime, so the rounds are
	// theirs too.
	campaign := (*process == "cobra" || *process == "bips") && !*trace
	spec := batch.Spec{
		Graph: *graphFlag, Process: *process, Branch: *branch, Rho: *rho,
		Lazy: *lazy, Start: *start, Trials: *trials, Seed: *seed, Workers: *workers,
	}

	// ndjson mode emits exactly the per-trial records cobrad streams and
	// journals for the same spec — same derivation, same encoder — so a
	// local run can be diffed byte-for-byte against a server's results or
	// a recovered journal. Only the batch processes have that wire form.
	if *format == "ndjson" {
		if !campaign {
			fatal(fmt.Errorf("-format ndjson supports cobra and bips, not %q", *process))
		}
		if err := runNDJSON(spec, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	// In csv mode stdout carries only the CSV; commentary goes to stderr.
	info := os.Stdout
	if *format == "csv" {
		info = os.Stderr
	}
	var (
		g   *graph.Graph
		xs  []float64
		err error
	)
	if campaign {
		g, _, err = runCampaign(spec, info, func(r batch.TrialResult) {
			xs = append(xs, float64(r.Rounds))
		})
		if err != nil {
			fatal(err)
		}
	} else {
		if g, err = graphspec.Parse(*graphFlag, *seed); err != nil {
			fatal(err)
		}
		printGraph(info, g)
		if *trace {
			if err := runTrace(g, *process, *branch, *rho, *lazy, *start, *seed, *csvPath); err != nil {
				fatal(err)
			}
			return
		}
		var fn sim.TrialFunc
		switch *process {
		case "rw":
			fn = func(trial int, rng *xrand.RNG) (float64, error) {
				t, err := walk.CoverTime(g, *start, *lazy, rng)
				return float64(t), err
			}
		case "multirw":
			fn = func(trial int, rng *xrand.RNG) (float64, error) {
				t, err := walk.MultiCoverTime(g, *walkers, *start, rng)
				return float64(t), err
			}
		case "push":
			fn = func(trial int, rng *xrand.RNG) (float64, error) {
				res, err := gossip.Push(g, *start, rng)
				return float64(res.Rounds), err
			}
		default:
			fatal(fmt.Errorf("unknown process %q", *process))
		}
		if xs, err = (sim.Runner{Seed: *seed, Workers: *workers}).Run(*trials, fn); err != nil {
			fatal(err)
		}
	}
	s, err := stats.Summarize(xs)
	if err != nil {
		fatal(err)
	}
	unit := "rounds"
	if *process == "rw" {
		unit = "steps"
	}
	if *format == "csv" {
		// Machine-readable per-trial measurements on stdout (one row per
		// trial, reusing the sim CSV writer), human summary on stderr.
		tb := sim.NewTable("", "trial", *process+"_"+unit)
		for i, x := range xs {
			tb.AddRow(i, fmt.Sprintf("%g", x))
		}
		if err := tb.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(info, "%s %s over %d trials:\n", *process, unit, s.N)
	fmt.Fprintf(info, "  mean   %.2f  (95%% CI %.2f..%.2f)\n", s.Mean, s.CI95Lo, s.CI95Hi)
	fmt.Fprintf(info, "  median %.1f  q25 %.1f  q75 %.1f\n", s.Median, s.Q25, s.Q75)
	fmt.Fprintf(info, "  min    %.0f  max %.0f  std %.2f\n", s.Min, s.Max, s.Std)
	fmt.Fprintf(info, "  lower bound max{log2 n, Diam} = %d\n", g.CoverTimeLowerBound())
}

// printGraph writes the one-line description of g that opens a table or
// csv run.
func printGraph(w io.Writer, g *graph.Graph) {
	fmt.Fprintf(w, "graph: %s (n=%d m=%d dmax=%d bipartite=%v)\n",
		g.Name(), g.N(), g.M(), g.MaxDegree(), g.IsBipartite())
}

// runCampaign compiles spec and runs its trials through the batch
// subsystem, the computation cobrad runs for the same spec, passing each
// TrialResult to onResult in trial order. With info non-nil it prints the
// graph line there before the first trial.
func runCampaign(spec batch.Spec, info io.Writer, onResult func(batch.TrialResult)) (*graph.Graph, *batch.Aggregate, error) {
	c, err := batch.Compile(spec, nil)
	if err != nil {
		return nil, nil, err
	}
	if info != nil {
		printGraph(info, c.Graph())
	}
	agg, err := c.Run(context.Background(), onResult)
	return c.Graph(), agg, err
}

// runNDJSON runs one campaign, writing each TrialResult as one NDJSON
// line on w (the cobrad wire and journal format) and the summary to
// stderr.
func runNDJSON(spec batch.Spec, w io.Writer) error {
	enc := json.NewEncoder(w)
	var encErr error
	_, agg, err := runCampaign(spec, nil, func(r batch.TrialResult) {
		if encErr == nil {
			encErr = enc.Encode(r)
		}
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	s := agg.Rounds
	fmt.Fprintf(os.Stderr, "%s rounds over %d trials: mean %.2f (95%% CI %.2f..%.2f) median %.1f\n",
		spec.Process, agg.Completed, s.Mean, s.CI95Lo, s.CI95Hi, s.Median)
	return nil
}

// runTrace runs a single traced COBRA or BIPS run and renders the
// per-round set-size curve as an ASCII chart (plus optional CSV).
func runTrace(g *graph.Graph, process string, branch int, rho float64, lazy bool, start int, seed uint64, csvPath string) error {
	var series []float64
	var label string
	switch process {
	case "cobra":
		tr, err := core.Trace(g, core.Config{Branch: branch, Rho: rho, Lazy: lazy}, start, xrand.New(seed))
		if err != nil {
			return err
		}
		series = sim.IntSeries(tr.CoveredSize)
		label = fmt.Sprintf("COBRA covered vertices per round (cover at %d)", tr.CoverRound)
	case "bips":
		tr, err := bips.Trace(g, bips.Config{Branch: branch, Rho: rho, Lazy: lazy}, start, xrand.New(seed))
		if err != nil {
			return err
		}
		series = sim.IntSeries(tr.InfectedSize)
		label = fmt.Sprintf("BIPS infected vertices per round (complete at %d)", tr.CompleteRound)
	default:
		return fmt.Errorf("-trace supports cobra and bips, not %q", process)
	}
	if err := plot.Line(os.Stdout, label, series, 72, 14); err != nil {
		return err
	}
	fmt.Printf("sparkline: %s\n", plot.Sparkline(series))
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rounds := make([]float64, len(series))
		for i := range rounds {
			rounds[i] = float64(i)
		}
		if err := sim.WriteSeriesCSV(f, []string{"round", "size"}, rounds, series); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	return nil
}

// sweepDefaults carries the single-campaign flag values that seed any
// sweep axis the user left empty.
type sweepDefaults struct {
	graph, process string
	branch         int
	rho            float64
	lazy           bool
	start, trials  int
	seed           uint64
	workers        int
	cellWorkers    int
}

// sweepSpec assembles the batch.SweepSpec from the comma-separated axis
// flags, falling back to the scalar flags for omitted axes. Malformed
// axes — empty entries, non-numeric values — are rejected here with the
// offending flag named; duplicate, non-positive, or out-of-range entries
// are rejected by SweepSpec.Validate, so a degenerate grid never runs.
func sweepSpec(graphs, processes, branches, rhos string, d sweepDefaults) (batch.SweepSpec, error) {
	spec := batch.SweepSpec{
		Lazy:        d.lazy,
		Start:       d.start,
		Trials:      d.trials,
		Seed:        d.seed,
		Workers:     d.workers,
		CellWorkers: d.cellWorkers,
	}
	var err error
	if spec.Graphs, err = splitAxis("-graphs", graphs, d.graph); err != nil {
		return spec, err
	}
	if spec.Processes, err = splitAxis("-processes", processes, d.process); err != nil {
		return spec, err
	}
	branchEntries, err := splitAxis("-branches", branches, strconv.Itoa(d.branch))
	if err != nil {
		return spec, err
	}
	for _, raw := range branchEntries {
		b, err := strconv.Atoi(raw)
		if err != nil {
			return spec, fmt.Errorf("-branches entry %q not an integer", raw)
		}
		spec.Branches = append(spec.Branches, b)
	}
	rhoEntries, err := splitAxis("-rhos", rhos, strconv.FormatFloat(d.rho, 'g', -1, 64))
	if err != nil {
		return spec, err
	}
	for _, raw := range rhoEntries {
		r, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return spec, fmt.Errorf("-rhos entry %q not a number", raw)
		}
		spec.Rhos = append(spec.Rhos, r)
	}
	return spec, spec.Validate()
}

// splitAxis splits a comma-separated axis flag, substituting the scalar
// default when the flag is empty. Empty entries (",," or a stray
// trailing comma) are an error, not silently dropped: a typo must not
// quietly shrink the grid.
func splitAxis(name, list, fallback string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		list = fallback
	}
	parts := strings.Split(list, ",")
	out := make([]string, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("%s has an empty entry in %q", name, list)
		}
		out = append(out, part)
	}
	return out, nil
}

// runSweep compiles and runs the sweep, then prints the cross-cell
// summary grid: an aligned table (human) or CSV rows on stdout with the
// run commentary on stderr.
func runSweep(spec batch.SweepSpec, format string) error {
	// Machine-readable modes keep stdout for the data; commentary and, in
	// ndjson mode, the summary grid go to stderr.
	info := os.Stdout
	if format != "table" {
		info = os.Stderr
	}
	sw, err := batch.CompileSweep(spec, nil)
	if err != nil {
		return err
	}
	cellWorkers := spec.CellWorkers
	if cellWorkers < 1 {
		cellWorkers = 1
	}
	fmt.Fprintf(info, "sweep: %d cells (%d graphs x %d processes x %d branches x %d rhos), %d trials each, %d cell workers\n",
		spec.CellCount(), len(spec.Graphs), len(spec.Processes), len(spec.Branches),
		spec.CellCount()/(len(spec.Graphs)*len(spec.Processes)*len(spec.Branches)), spec.Trials, cellWorkers)
	// ndjson mode streams each CellResult in (cell, trial) order — the
	// bytes cobrad's sweep results endpoint and journals carry.
	var onResult func(batch.CellResult)
	var encErr error
	if format == "ndjson" {
		enc := json.NewEncoder(os.Stdout)
		onResult = func(r batch.CellResult) {
			if encErr == nil {
				encErr = enc.Encode(r)
			}
		}
	}
	cells, err := sw.Run(context.Background(), onResult)
	if err != nil {
		return err
	}
	if encErr != nil {
		return encErr
	}
	// Graphs compile lazily at cell admission, so the counters are only
	// meaningful after the run: builds must equal the distinct graph count.
	hits, misses, _ := sw.CacheStats()
	fmt.Fprintf(info, "sweep: %d graph builds, %d cache hits\n", misses, hits)
	header, rows := batch.SummaryTable(cells)
	tb := sim.NewTable(fmt.Sprintf("sweep seed=%d", spec.Seed), header...)
	for _, row := range rows {
		rowCells := make([]any, len(row))
		for i, c := range row {
			rowCells[i] = c
		}
		tb.AddRow(rowCells...)
	}
	if format == "csv" {
		return tb.WriteCSV(os.Stdout)
	}
	tb.Render(info)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobrasim:", err)
	os.Exit(1)
}
