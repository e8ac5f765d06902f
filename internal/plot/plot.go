// Package plot renders small ASCII charts for terminal output: line
// charts and sparklines of per-round trajectories (infection curves,
// active-set sizes). The experiments and CLI tools use it to make the
// reproduction readable without leaving the terminal; it is deliberately
// tiny and dependency-free.
package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// ErrInput flags invalid plotting arguments.
var ErrInput = errors.New("plot: invalid input")

// Line renders ys as an ASCII line chart of the given width and height
// (characters). X is the index. A y-axis scale is printed on the left.
func Line(w io.Writer, title string, ys []float64, width, height int) error {
	if len(ys) == 0 || width < 8 || height < 2 {
		return fmt.Errorf("%w: need data, width >= 8, height >= 2", ErrInput)
	}
	lo, hi := minMax(ys)
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for c := 0; c < width; c++ {
		// Sample ys at column c (nearest index).
		idx := c * (len(ys) - 1) / max(width-1, 1)
		y := ys[idx]
		r := int(math.Round((hi - y) / (hi - lo) * float64(height-1)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		grid[r][c] = '*'
	}
	if title != "" {
		if _, err := fmt.Fprintln(w, title); err != nil {
			return err
		}
	}
	for r, row := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%10.3g", hi)
		case height - 1:
			label = fmt.Sprintf("%10.3g", lo)
		default:
			label = strings.Repeat(" ", 10)
		}
		if _, err := fmt.Fprintf(w, "%s |%s\n", label, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s +%s\n%s  0%s%d\n",
		strings.Repeat(" ", 10), strings.Repeat("-", width),
		strings.Repeat(" ", 10), strings.Repeat(" ", max(width-len(fmt.Sprint(len(ys)-1))-1, 1)), len(ys)-1)
	return err
}

// Sparkline returns a one-line unicode sparkline of ys (8 levels).
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := minMax(ys)
	if hi == lo {
		return strings.Repeat(string(blocks[0]), len(ys))
	}
	var sb strings.Builder
	for _, y := range ys {
		level := int((y - lo) / (hi - lo) * 7.999)
		if level < 0 {
			level = 0
		}
		if level > 7 {
			level = 7
		}
		sb.WriteRune(blocks[level])
	}
	return sb.String()
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
