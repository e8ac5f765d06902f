// Command graphinfo prints the structural and spectral properties that
// parameterise the paper's bounds for a graph family: n, m, dmax,
// diameter, bipartiteness, the second eigenvalue λ and gap 1−λ (plain and
// lazy), a conductance estimate, and the evaluated bound shapes of
// Theorems 1.1 and 1.2.
//
// Usage:
//
//	graphinfo -graph hypercube:10
//	graphinfo -graph rreg:1024:3 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/repro/cobra/internal/bounds"
	"github.com/repro/cobra/internal/graphspec"
	"github.com/repro/cobra/internal/spectral"
)

func main() {
	var (
		graphFlag = flag.String("graph", "petersen", "graph spec (family:args)")
		seed      = flag.Uint64("seed", 1, "seed for random families")
		exact     = flag.Bool("exact-conductance", false, "brute-force conductance (n <= 24 only)")
	)
	flag.Parse()

	g, err := graphspec.Parse(*graphFlag, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph       %s\n", g.Name())
	fmt.Printf("n, m        %d, %d\n", g.N(), g.M())
	fmt.Printf("degree      min %d  max %d", g.MinDegree(), g.MaxDegree())
	if reg, r := g.IsRegular(); reg {
		fmt.Printf("  (regular, r=%d)", r)
	}
	fmt.Println()
	fmt.Printf("connected   %v\n", g.IsConnected())
	fmt.Printf("bipartite   %v\n", g.IsBipartite())
	if g.N() <= 4096 {
		fmt.Printf("diameter    %d (exact)\n", g.Diameter())
	} else {
		fmt.Printf("diameter    >= %d (double-sweep lower bound)\n", g.DiameterApprox())
	}

	opt := spectral.Options{}
	lam, err := spectral.SecondEigenvalue(g, opt)
	if err != nil {
		fatal(err)
	}
	lamLazy, err := spectral.SecondEigenvalueLazy(g, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lambda      %.6f   gap 1-lambda      %.6f\n", lam, 1-lam)
	fmt.Printf("lazy lambda %.6f   lazy gap          %.6f\n", lamLazy, 1-lamLazy)

	if *exact {
		if g.N() > 24 {
			fatal(fmt.Errorf("exact conductance needs n <= 24 (n = %d)", g.N()))
		}
		fmt.Printf("conductance %.6f (exact)\n", spectral.ConductanceExact(g))
	} else {
		phi, err := spectral.ConductanceSweep(g, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("conductance <= %.6f (sweep-cut estimate)\n", phi)
	}

	fmt.Printf("Thm 1.1 shape  m + dmax^2 ln n        = %.0f\n", bounds.General(g))
	if reg, r := g.IsRegular(); reg {
		gap := 1 - lam
		note := ""
		if g.IsBipartite() {
			gap = 1 - lamLazy
			note = " (lazy gap; graph is bipartite)"
		}
		if v, err := bounds.Regular(g.N(), r, gap); err == nil {
			fmt.Printf("Thm 1.2 shape  (r/gap + r^2) ln n      = %.0f%s\n", v, note)
		}
		if v, err := bounds.PODC16(g.N(), gap); err == nil {
			fmt.Printf("PODC'16 shape  (1/gap)^3 ln n          = %.0f%s\n", v, note)
		}
	}
	fmt.Printf("lower bound    max{log2 n, Diam}      = %d\n", g.CoverTimeLowerBound())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphinfo:", err)
	os.Exit(1)
}
