package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/repro/cobra/internal/batch"
)

func defaults() sweepDefaults {
	return sweepDefaults{
		graph: "rreg:256:3", process: "cobra", branch: 2, rho: 0,
		trials: 5, seed: 1, cellWorkers: 3,
	}
}

// Axis flags fall back to the scalar flags when empty, and the assembled
// spec carries every scalar — including the cell-workers knob.
func TestSweepSpecDefaults(t *testing.T) {
	spec, err := sweepSpec("", "", "", "", defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Graphs) != 1 || spec.Graphs[0] != "rreg:256:3" {
		t.Fatalf("graphs %v", spec.Graphs)
	}
	if len(spec.Processes) != 1 || spec.Processes[0] != "cobra" {
		t.Fatalf("processes %v", spec.Processes)
	}
	if len(spec.Branches) != 1 || spec.Branches[0] != 2 {
		t.Fatalf("branches %v", spec.Branches)
	}
	if len(spec.Rhos) != 1 || spec.Rhos[0] != 0 {
		t.Fatalf("rhos %v", spec.Rhos)
	}
	if spec.CellWorkers != 3 {
		t.Fatalf("cell workers %d, want 3", spec.CellWorkers)
	}
}

func TestSweepSpecAxes(t *testing.T) {
	spec, err := sweepSpec("rreg:256:3,ba:400:3", "cobra,bips", "2, 3", "0,0.5", defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Graphs) != 2 || len(spec.Processes) != 2 || len(spec.Branches) != 2 || len(spec.Rhos) != 2 {
		t.Fatalf("axes %v %v %v %v", spec.Graphs, spec.Processes, spec.Branches, spec.Rhos)
	}
	if spec.CellCount() != 16 {
		t.Fatalf("cell count %d", spec.CellCount())
	}
}

// Regression: malformed axis flags must be rejected with the offending
// flag named, never silently shrunk or passed through as a degenerate
// grid (empty entries used to be dropped; NaN rhos used to validate).
func TestSweepSpecRejectsBadAxes(t *testing.T) {
	cases := []struct {
		name                              string
		graphs, processes, branches, rhos string
		wantErr                           string
	}{
		{"empty graph entry", "rreg:256:3,,ba:400:3", "", "", "", "-graphs"},
		{"trailing graph comma", "rreg:256:3,", "", "", "", "-graphs"},
		{"only commas", ",", "", "", "", "-graphs"},
		{"empty process entry", "", "cobra,,bips", "", "", "-processes"},
		{"unknown process", "", "warp", "", "", "process"},
		{"duplicate process", "", "cobra,COBRA", "", "", "duplicate"},
		{"empty branch entry", "", "", "2,,3", "", "-branches"},
		{"non-integer branch", "", "", "2,x", "", "-branches"},
		{"non-positive branch", "", "", "0", "", "branch"},
		{"duplicate branch", "", "", "2,2", "", "duplicate"},
		{"empty rho entry", "", "", "", "0.5,,0.25", "-rhos"},
		{"non-numeric rho", "", "", "", "0.5,zap", "-rhos"},
		{"NaN rho", "", "", "", "nan", "rho"},
		{"infinite rho", "", "", "", "+inf", "rho"},
		{"out-of-range rho", "", "", "", "1.5", "rho"},
		{"duplicate rho", "", "", "", "0.5,0.5", "duplicate"},
		{"duplicate graphs canonically", "rreg:256:3,RREG:0256:3", "", "", "", "duplicate"},
	}
	for _, c := range cases {
		_, err := sweepSpec(c.graphs, c.processes, c.branches, c.rhos, defaults())
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// -format ndjson must emit exactly the bytes cobrad streams and journals
// for the same spec: one json.Marshal'd TrialResult per line, in trial
// order.
func TestRunNDJSONMatchesWireFormat(t *testing.T) {
	spec := batch.Spec{Graph: "rreg:256:3", Process: "cobra", Branch: 2, Trials: 8, Seed: 5}
	var got bytes.Buffer
	if err := runNDJSON(spec, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := wireLines(t, spec); got.String() != want {
		t.Fatalf("ndjson output diverged from the wire format:\n%s\nvs\n%s", got.String(), want)
	}
}

// wireLines returns what batch.Compile followed by Run encodes for spec,
// one json.Marshal'd TrialResult per line: the bytes cobrad streams and
// journals.
func wireLines(t *testing.T, spec batch.Spec) string {
	t.Helper()
	c, err := batch.Compile(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if _, err := c.Run(context.Background(), func(r batch.TrialResult) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

// run drives cobrasim from its flags: a bad flag exits non-zero with an
// error naming it, and an ndjson run writes exactly the lines that
// batch.Compile followed by Run encode for the same spec.
func TestRunFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-rho", "nan"}, 1, "rho"},
		{[]string{"-rho", "nan", "-format", "ndjson"}, 1, "rho"},
		{[]string{"-format", "xml"}, 1, "-format"},
		{[]string{"-trials", "x"}, 2, "-trials"},
		// A process flag the chosen process does not read is refused.
		{[]string{"-graph", "cycle:16", "-process", "rw", "-rho", "nan", "-b", "0", "-trials", "2"}, 1, "-process rw does not read -b, -rho"},
		{[]string{"-graph", "cycle:16", "-process", "cobra", "-k", "4", "-trials", "2"}, 1, "-process cobra does not read -k"},
		{[]string{"-graph", "cycle:16", "-process", "bips", "-k", "4", "-trials", "2"}, 1, "-process bips does not read -k"},
		{[]string{"-graph", "cycle:16", "-process", "rw", "-k", "4", "-trials", "2"}, 1, "-process rw does not read -k"},
		{[]string{"-graph", "cycle:16", "-process", "multirw", "-lazy", "-trials", "2"}, 1, "-process multirw does not read -lazy"},
		{[]string{"-graph", "cycle:16", "-process", "push", "-lazy", "-trials", "2"}, 1, "-process push does not read -lazy"},
		{[]string{"-sweep", "-graph", "cycle:16", "-k", "4", "-trials", "2"}, 1, "-sweep does not read -k"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.want) {
			t.Fatalf("%v: exit %d, stderr %q; want exit %d naming %s", c.args, code, stderr.String(), c.code, c.want)
		}
		if stdout.Len() != 0 {
			t.Fatalf("%v: wrote %q to stdout", c.args, stdout.String())
		}
	}

	// Every process accepts the process flags it reads.
	for _, args := range [][]string{
		{"-process", "cobra", "-b", "3", "-rho", "0", "-lazy"},
		{"-process", "bips", "-b", "1", "-rho", "0.5", "-lazy"},
		{"-process", "rw", "-lazy"},
		{"-process", "multirw", "-k", "4"},
		{"-process", "push", "-start", "3"},
	} {
		args = append(args, "-graph", "cycle:16", "-trials", "2")
		if code := run(args, io.Discard, io.Discard); code != 0 {
			t.Fatalf("%v: exit %d", args, code)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-graph", "rreg:64:3", "-trials", "4", "-seed", "1", "-format", "ndjson"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := wireLines(t, batch.Spec{Graph: "rreg:64:3", Process: "cobra", Branch: 2, Trials: 4, Seed: 1})
	if got := stdout.String(); got != want || strings.Count(got, "\n") != 4 {
		t.Fatalf("ndjson output:\n%s\nwant:\n%s", got, want)
	}
}

func TestSplitAxisStrict(t *testing.T) {
	out, err := splitAxis("-graphs", " a , b ", "fallback")
	if err != nil || len(out) != 2 || out[0] != "a" || out[1] != "b" {
		t.Fatalf("out=%v err=%v", out, err)
	}
	out, err = splitAxis("-graphs", "", "fallback")
	if err != nil || len(out) != 1 || out[0] != "fallback" {
		t.Fatalf("fallback: out=%v err=%v", out, err)
	}
	if _, err := splitAxis("-graphs", "a,,b", "f"); err == nil {
		t.Fatal("empty entry accepted")
	}
	if _, err := splitAxis("-graphs", " , ", "f"); err == nil {
		t.Fatal("all-empty list accepted")
	}
}
