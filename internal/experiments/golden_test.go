package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestQuickReportGolden regenerates the whole Quick-scale report for
// seed 1 through Report (the code path of `experiments -scale quick
// -seed 1`) and byte-compares it with testdata/quick-seed1.txt, that
// command's output with the "(Ex in …s)" wall-time lines removed. Every
// experiment is a pure function of the seed, so any moved byte is a
// changed result: a draw-order change in the engine, a changed estimator
// or a changed table layout. Regenerate the file only for a deliberate
// change of results, and say which.
func TestQuickReportGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Report(&got, Params{Seed: 1, Scale: Quick}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick report differs from testdata/quick-seed1.txt at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
