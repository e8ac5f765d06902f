// Command experiments regenerates every experiment table in
// EXPERIMENTS.md (the reproduction of the paper's theorems, lemmas and
// worked examples — the experiment index is the experiments.All registry
// in internal/experiments).
//
// Usage:
//
//	experiments                     # run everything at full scale
//	experiments -scale quick        # reduced sizes (seconds)
//	experiments -only E3,E4         # a subset
//	experiments -seed 7 -out out.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/repro/cobra/internal/experiments"
)

func main() {
	var (
		scaleFlag = flag.String("scale", "full", "quick | full")
		only      = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E4,A2)")
		seed      = flag.Uint64("seed", 1, "master seed")
		workers   = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
		outFile   = flag.String("out", "", "also write output to this file")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleFlag))
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var out io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	params := experiments.Params{Seed: *seed, Scale: scale, Workers: *workers}
	fmt.Fprintf(out, "COBRA reproduction experiments (seed=%d scale=%s)\n\n", *seed, *scaleFlag)
	for _, exp := range experiments.All() {
		if len(wanted) > 0 && !wanted[exp.ID] {
			continue
		}
		fmt.Fprintf(out, "[%s] %s\n", exp.ID, exp.Name)
		start := time.Now()
		tb, err := exp.Run(params)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", exp.ID, err))
		}
		tb.Render(out)
		fmt.Fprintf(out, "(%s in %.1fs)\n\n", exp.ID, time.Since(start).Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
