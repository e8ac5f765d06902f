package main

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/repro/cobra/internal/batch"
	"github.com/repro/cobra/internal/stats"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the estimators must sort
	}
	return xs
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{seq(101), 0.95, 96},
		{seq(11), 0.25, 3.5},
		{[]float64{5}, 0.95, 5},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("estimators of no samples must be NaN")
	}
}

func TestNormalP95(t *testing.T) {
	// Symmetric around 10 with MAD 1: median + 1.645 * 1.4826.
	xs := []float64{8, 9, 9, 10, 10, 10, 11, 11, 12}
	if got, want := normalP95(xs), 10+1.645*1.4826; math.Abs(got-want) > 1e-12 {
		t.Errorf("normalP95 = %v, want %v", got, want)
	}
	// One wild sample moves an order statistic of few jobs, not the
	// robust estimate.
	wild := append(append([]float64(nil), xs...), 1000)
	if got := normalP95(wild); got > 13 {
		t.Errorf("normalP95 with an outlier = %v; an outlier must not carry it", got)
	}
}

func TestTailRule(t *testing.T) {
	if got := tailCount(seq(100)); got != 5 {
		t.Errorf("100 samples leave %d beyond p95, want 5", got)
	}
	if got := tailCount(seq(200)); got < minTail {
		t.Errorf("200 samples leave %d beyond p95, want at least %d", got, minTail)
	}
	// Every open-loop slice must hold enough jobs for its p95 to have the
	// tail the rule asks for.
	if got := tailCount(seq(sliceJobs)); got < minTail {
		t.Errorf("a slice of %d jobs leaves %d beyond p95", sliceJobs, got)
	}
}

func TestSliceP95s(t *testing.T) {
	t0 := time.Now()
	var outs []outcome
	for i := 0; i < 2*sliceJobs+40; i++ {
		lat := float64(i%sliceJobs) + 1 // 1..sliceJobs ms in every slice
		if i < sliceJobs {
			lat += 1000 // a stall slows the whole first slice
		}
		due := t0.Add(time.Duration(i) * time.Millisecond)
		outs = append(outs, outcome{Job: Job{Index: i}, Due: due, StreamEnd: due.Add(time.Duration(lat * 1e6))})
	}
	p95s, err := sliceP95s(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p95s) != 2 {
		t.Fatalf("%d slices, want 2 (the short tail joins the last)", len(p95s))
	}
	if p95s[0] < 1000 || p95s[1] > float64(sliceJobs) {
		t.Errorf("slice p95s %v: the stall belongs to the first slice only", p95s)
	}
	if _, err := sliceP95s(outs[:sliceJobs/2]); err == nil {
		t.Error("a window too short for ten jobs beyond its p95 was accepted")
	}
}

func TestHostFactor(t *testing.T) {
	if got := hostFactor(refProbeRate, 1); got != 1 {
		t.Errorf("at the reference speed the factor is 1, got %v", got)
	}
	if got := hostFactor(refProbeRate/2, 1); got != 2 {
		t.Errorf("a host at half the probe speed is scaled up 2x, got %v", got)
	}
	if got := hostFactor(refProbeRate/4, 0.5); math.Abs(got-2) > 1e-12 {
		t.Errorf("exponent 0.5 at a quarter of the probe speed gives 2x, got %v", got)
	}
	if got := hostFactor(refProbeRate/3, 0); got != 1 {
		t.Errorf("exponent 0 does not scale, got %v", got)
	}
	for _, w := range workloadNames {
		if _, ok := hostExponents[w]; !ok {
			t.Errorf("workload %s has no host exponents", w)
		}
	}
}

func TestProbeGuard(t *testing.T) {
	if err := (probeSample{Rate: 1, CPURatio: 1.02}).check(); err != nil {
		t.Errorf("an idle process failed the guard: %v", err)
	}
	if err := (probeSample{Rate: 1, CPURatio: 1.9}).check(); err == nil {
		t.Error("a process computing beside the probe passed the guard")
	}
}

func TestParseProm(t *testing.T) {
	text := "# HELP x y\ncobrad_a_total 3\ncobrad_b{le=\"1\"} 2\ncobrad_b{le=\"+Inf\"} 5\ncobrad_h_sum 0.5\ncobrad_h_count 4\n"
	before := parseProm([]byte("cobrad_a_total 1\ncobrad_h_sum 0.1\ncobrad_h_count 2\n"))
	after := parseProm([]byte(text))
	if got := after.delta(before, "cobrad_a_total"); got != 2 {
		t.Errorf("delta = %v, want 2", got)
	}
	if got := after.sum("cobrad_b"); got != 7 {
		t.Errorf("labelled sum = %v, want 7", got)
	}
	if got, n := after.histMeanMS(before, "cobrad_h"); n != 2 || math.Abs(got-200) > 1e-9 {
		t.Errorf("histogram mean = %v ms over %d, want 200 over 2", got, n)
	}
}

// checkJob must accept a job exactly as the library path emits it, and
// reject every way the served bytes can go wrong.
func TestCheckJob(t *testing.T) {
	g, _ := newGenerator(smallJobs, 11)
	var job Job
	for i := 0; job.Sweep == nil; i++ {
		job = g.job(i)
	}
	body, err := libraryRun(context.Background(), job, nil)
	if err != nil {
		t.Fatal(err)
	}
	status := func(body []byte) []byte {
		var cells []batch.CellSummary
		folds := map[int]*stats.Online{}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var r batch.CellResult
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatal(err)
			}
			if folds[r.Cell] == nil {
				folds[r.Cell] = stats.NewOnline()
			}
			folds[r.Cell].Add(float64(r.Rounds))
		}
		for c := 0; c < len(folds); c++ {
			sum, _ := folds[c].Summary()
			cells = append(cells, batch.CellSummary{Cell: c, Aggregate: &batch.Aggregate{Completed: folds[c].N(), Rounds: sum}})
		}
		b, _ := json.Marshal(map[string]any{"state": "done", "cell_aggregates": cells})
		return b
	}
	if err := checkJob(job, body, status(body)); err != nil {
		t.Fatalf("library output rejected: %v", err)
	}
	lines := strings.SplitAfter(string(body), "\n")
	lines = lines[:len(lines)-1]
	dropped := []byte(strings.Join(lines[:len(lines)-1], ""))
	swapped := []byte(strings.Join(append([]string{lines[1], lines[0]}, lines[2:]...), ""))
	spaced := []byte(strings.Replace(string(body), ":", ": ", 1))
	for name, bad := range map[string][]byte{"dropped": dropped, "swapped": swapped, "re-encoded": spaced} {
		if err := checkJob(job, bad, status(bad)); err == nil {
			t.Errorf("%s trial accepted", name)
		}
	}
	wrong := strings.Replace(string(status(body)), `"Mean":`, `"Mean":1`, 1)
	if err := checkJob(job, body, []byte(wrong)); err == nil {
		t.Error("a status aggregate that is not the fold of the stream was accepted")
	}
	failed := strings.Replace(string(status(body)), `"done"`, `"failed"`, 1)
	if err := checkJob(job, body, []byte(failed)); err == nil {
		t.Error("a failed job was accepted")
	}
}
