// Command perfbench is cobrad's end-to-end benchmark. It runs one
// workload against an in-process cobrad served over httptest, checks
// every job's output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output:
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// metric is one reported number with its sample count.
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
	Note  string
}

// report is what a run prints.
type report struct {
	problems  []string
	attempted int
	failed    int
	metrics   []metric
	diag      []metric // printed, not part of the result object
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) add(name, unit string, v float64, n int, note string) {
	r.metrics = append(r.metrics, metric{name, unit, v, n, note})
}

func (r *report) addDiag(name, unit string, v float64, n int, note string) {
	r.diag = append(r.diag, metric{name, unit, v, n, note})
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: paper-sweep, small-jobs or fleet-sweep")
	seed := fs.Uint64("seed", 1, "seed the job list (and graphs) are drawn from")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch directory for stores and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	gen, err := newGenerator(*workload, *seed)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(dir)

	b := &bench{
		gen:     gen,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		dir:     dir,
		workdir: *workdir,
		out:     stdout,
		host:    readHost(),
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	return 0
}

// printReport writes one line per metric and diagnostic, then the
// result object as the last line.
func printReport(w io.Writer, rep *report) {
	for _, m := range append(append([]metric(nil), rep.metrics...), rep.diag...) {
		note := ""
		if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(w, "problem:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.problems) == 0, attempted, rep.failed, metrics})
	fmt.Fprintln(w, string(line))
}

// writeSpans writes the traced run's spans to the work directory.
func writeSpans(workdir, workload string, seed uint64, spans []span) (string, error) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	name := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return name, os.WriteFile(name, b, 0o644)
}
