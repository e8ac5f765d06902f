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
	var keep func(string) bool
	if len(wanted) > 0 {
		keep = func(id string) bool { return wanted[id] }
	}
	err := experiments.Report(out, params, keep, func(id string, took time.Duration) {
		fmt.Fprintf(out, "(%s in %.1fs)\n", id, took.Seconds())
	})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
