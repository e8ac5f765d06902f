package cobra

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/bips"
	"github.com/repro/cobra/internal/core"
	"github.com/repro/cobra/internal/duality"
	"github.com/repro/cobra/internal/engine"
	"github.com/repro/cobra/internal/exact"
	"github.com/repro/cobra/internal/xrand"
)

// Every entry point that takes a branching factor b = Branch + Rho
// rejects one outside the paper's range (b >= 1, ρ ∈ [0, 1]) under its
// own package's sentinel: all of them go through the one check,
// engine.ValidateBranching, which fails NaN and ±Inf too. Each call runs
// under a 1-s bound, since a NaN ρ that slipped through would run a
// process to its round cap instead of failing.
func TestBranchingRejectedEverywhere(t *testing.T) {
	g := Complete(8)
	bad := []struct {
		branch int
		rho    float64
	}{
		{1, math.NaN()}, {1, math.Inf(1)}, {1, math.Inf(-1)}, {1, -0.1}, {1, 1.1}, {0, 0},
	}
	type entry struct {
		name     string
		sentinel error
		call     func(branch int, rho float64) error
	}
	entries := []entry{
		{"engine.NewCobra", engine.ErrConfig, func(b int, r float64) error {
			_, err := engine.NewCobra(g, engine.Params{Branch: b, Rho: r}, []int{0}, 1)
			return err
		}},
		{"engine.NewBips", engine.ErrConfig, func(b int, r float64) error {
			_, err := engine.NewBips(g, engine.Params{Branch: b, Rho: r}, 0, 1)
			return err
		}},
		{"core.New", core.ErrConfig, func(b int, r float64) error {
			_, err := core.New(g, core.Config{Branch: b, Rho: r}, []int{0}, xrand.New(1))
			return err
		}},
		{"bips.New", bips.ErrConfig, func(b int, r float64) error {
			_, err := bips.New(g, bips.Config{Branch: b, Rho: r}, 0, xrand.New(1))
			return err
		}},
		{"duality.SampleTable", duality.ErrInput, func(b int, r float64) error {
			_, err := duality.SampleTable(g, duality.Config{Branch: b, Rho: r}, 4, xrand.New(1))
			return err
		}},
		{"exact.CobraHitProbability", exact.ErrInput, func(b int, r float64) error {
			_, err := exact.CobraHitProbability(g, exact.Config{Branch: b, Rho: r}, []int{0}, 7, 4)
			return err
		}},
		{"exact.BipsMeetComplementProbability", exact.ErrInput, func(b int, r float64) error {
			_, err := exact.BipsMeetComplementProbability(g, exact.Config{Branch: b, Rho: r}, 7, []int{0}, 4)
			return err
		}},
		{"exact.ExpectedInfectionTime", exact.ErrInput, func(b int, r float64) error {
			_, err := exact.ExpectedInfectionTime(g, exact.Config{Branch: b, Rho: r}, 0, 0)
			return err
		}},
		{"exact.ExpectedHitTime", exact.ErrInput, func(b int, r float64) error {
			_, err := exact.ExpectedHitTime(g, exact.Config{Branch: b, Rho: r}, []int{0}, 7, 0)
			return err
		}},
		{"CoverTime", core.ErrConfig, func(b int, r float64) error {
			_, err := CoverTime(g, Config{Branch: b, Rho: r}, 0, 1)
			return err
		}},
		{"InfectionTime", bips.ErrConfig, func(b int, r float64) error {
			_, err := InfectionTime(g, Config{Branch: b, Rho: r}, 0, 1)
			return err
		}},
		{"ExactHitProbability", exact.ErrInput, func(b int, r float64) error {
			_, err := ExactHitProbability(g, Config{Branch: b, Rho: r}, []int{0}, 7, 4)
			return err
		}},
		{"ExactMeetComplementProbability", exact.ErrInput, func(b int, r float64) error {
			_, err := ExactMeetComplementProbability(g, Config{Branch: b, Rho: r}, 7, []int{0}, 4)
			return err
		}},
		{"ExactExpectedInfectionTime", exact.ErrInput, func(b int, r float64) error {
			_, err := ExactExpectedInfectionTime(g, Config{Branch: b, Rho: r}, 0)
			return err
		}},
		{"ExactExpectedHitTime", exact.ErrInput, func(b int, r float64) error {
			_, err := ExactExpectedHitTime(g, Config{Branch: b, Rho: r}, []int{0}, 7)
			return err
		}},
		{"CheckDuality", duality.ErrInput, func(b int, r float64) error {
			_, _, err := CheckDuality(g, Config{Branch: b, Rho: r}, []int{0}, 7, 4, 1)
			return err
		}},
		{"batch.Spec.Validate", batch.ErrInput, func(b int, r float64) error {
			return batch.Spec{Graph: "complete:8", Process: "cobra", Branch: b, Rho: r, Trials: 1}.Validate()
		}},
		{"batch.SweepSpec.Validate", batch.ErrInput, func(b int, r float64) error {
			return batch.SweepSpec{Graphs: []string{"complete:8"}, Processes: []string{"bips"},
				Branches: []int{b}, Rhos: []float64{r}, Trials: 1}.Validate()
		}},
	}
	for _, e := range entries {
		for _, in := range bad {
			name := fmt.Sprintf("%s(b=%d,rho=%v)", e.name, in.branch, in.rho)
			done := make(chan error, 1)
			go func() { done <- e.call(in.branch, in.rho) }()
			select {
			case err := <-done:
				if !errors.Is(err, e.sentinel) {
					t.Errorf("%s = %v, want %v", name, err, e.sentinel)
				}
			case <-time.After(time.Second):
				t.Errorf("%s still running after 1s", name)
			}
		}
	}
}
