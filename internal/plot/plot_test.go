package plot

import (
	"errors"
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	var sb strings.Builder
	ys := []float64{0, 1, 4, 9, 16, 25}
	if err := Line(&sb, "squares", ys, 30, 8); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "squares") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("no points plotted")
	}
	if !strings.Contains(out, "25") || !strings.Contains(out, "0") {
		t.Fatalf("axis labels missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+8+2 { // title + height + rule + x labels
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestLineConstantSeries(t *testing.T) {
	var sb strings.Builder
	if err := Line(&sb, "", []float64{5, 5, 5}, 12, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Fatal("constant series plotted nothing")
	}
}

func TestLineErrors(t *testing.T) {
	var sb strings.Builder
	if err := Line(&sb, "", nil, 20, 5); !errors.Is(err, ErrInput) {
		t.Fatal("empty accepted")
	}
	if err := Line(&sb, "", []float64{1}, 2, 5); !errors.Is(err, ErrInput) {
		t.Fatal("narrow accepted")
	}
	if err := Line(&sb, "", []float64{1}, 20, 1); !errors.Is(err, ErrInput) {
		t.Fatal("short accepted")
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Fatalf("sparkline runes %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("sparkline levels wrong: %s", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline not empty")
	}
	flat := Sparkline([]float64{2, 2, 2})
	if flat != "▁▁▁" {
		t.Fatalf("flat sparkline %q", flat)
	}
}
