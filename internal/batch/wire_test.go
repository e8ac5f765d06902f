package batch

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/repro/cobra/internal/xrand"
)

// Property coverage for the campaign encoding: a cobrad campaign job runs
// as the one-cell sweep campaignSweep builds, so that cell must be the
// submitted campaign itself. The case generator is hand-rolled in the
// generator → invariant style: testing/quick supplies the case seed and
// every Spec field derives from it through xrand, so a failing case
// replays from its seed.

// genCampaignSpec draws a valid Spec, mixed-case process names and
// job-level queue fields included.
func genCampaignSpec(rng *xrand.RNG) Spec {
	graphs := []string{"rreg:1024:3", "ba:600:3", "grid:8:8", "cycle:9", "hypercube:5", "ws:200:4:0.1"}
	processes := []string{"cobra", "bips", "COBRA", "Bips", "cObRa"}
	spec := Spec{
		Graph:     graphs[rng.Intn(len(graphs))],
		Process:   processes[rng.Intn(len(processes))],
		Branch:    1 + rng.Intn(4),
		Lazy:      rng.Bool(),
		Start:     rng.Intn(8),
		Trials:    1 + rng.Intn(1000),
		Seed:      rng.Uint64(),
		Workers:   rng.Intn(9) - 2,
		MaxRounds: rng.Intn(3) * rng.Intn(1000),
		Priority:  rng.Intn(11) - 5,
	}
	if rng.Bool() {
		spec.Rho = float64(rng.Intn(5)) * 0.25
	}
	if rng.Bool() {
		spec.Deadline = time.Unix(int64(rng.Uint64n(1<<31)), 0).UTC().Format(time.RFC3339)
	}
	return spec
}

func TestCampaignSweepIsTheCampaign(t *testing.T) {
	f := func(caseSeed uint64) bool {
		spec := genCampaignSpec(xrand.New(caseSeed))
		if err := spec.Validate(); err != nil {
			t.Logf("caseSeed %d: generator drew an invalid spec: %v", caseSeed, err)
			return false
		}
		plan := campaignSweep(spec)
		if err := plan.Validate(); err != nil {
			t.Logf("caseSeed %d: plan %+v invalid: %v", caseSeed, plan, err)
			return false
		}
		cells := plan.Cells()
		want := spec
		want.Process = strings.ToLower(spec.Process)
		want.Deadline = ""
		if len(cells) != 1 || !reflect.DeepEqual(cells[0], want) {
			t.Logf("caseSeed %d: cells %+v, want [%+v]", caseSeed, cells, want)
			return false
		}
		// The job-level queue fields stay on the plan, where the queue
		// reads them.
		if plan.Priority != spec.Priority || plan.Deadline != spec.Deadline {
			t.Logf("caseSeed %d: plan queue fields (%d, %q), want (%d, %q)",
				caseSeed, plan.Priority, plan.Deadline, spec.Priority, spec.Deadline)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
