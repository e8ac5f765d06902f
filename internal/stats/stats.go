// Package stats provides the statistics used to turn simulation trials
// into experiment rows: summary statistics with confidence intervals,
// quantiles, and least-squares fits on log–log scales for
// extracting empirical scaling exponents (the "shape" checks of the
// reproduction: fitted exponent ≈ 1/D for D-dimensional grids, slope ≈ 0
// for K_n cover vs log n, and so on).
//
// Every product that feeds an addition or subtraction is rounded by an
// explicit conversion, float64(x*y) + z. The Go spec lets a compiler fuse
// x*y + z into one multiply-add unless a conversion rounds x*y first;
// arm64, ppc64le, riscv64, loong64 and s390x fuse, amd64 does not, so the
// conversions keep every result the same bits on every target.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInput flags invalid arguments (empty samples, mismatched lengths).
var ErrInput = errors.New("stats: invalid input")

// Summary holds the moments and order statistics of a sample.
type Summary struct {
	N              int
	Mean, Std      float64
	Min, Max       float64
	Median         float64
	Q25, Q75       float64
	StdErr         float64 // Std / sqrt(N)
	CI95Lo, CI95Hi float64 // mean ± 1.96·StdErr (normal approximation)
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("%w: empty sample", ErrInput)
	}
	s := Summary{N: len(xs)}
	var sum float64
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	if s.N > 1 {
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.StdErr = s.Std / math.Sqrt(float64(s.N))
	s.CI95Lo = s.Mean - float64(1.96*s.StdErr)
	s.CI95Hi = s.Mean + float64(1.96*s.StdErr)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.Q25 = Quantile(sorted, 0.25)
	s.Q75 = Quantile(sorted, 0.75)
	return s, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ASCENDING-sorted
// sample using linear interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := float64(q * float64(n-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
}

// Mean returns the arithmetic mean (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Fit is a least-squares line y = Slope·x + Intercept with goodness R².
type Fit struct {
	Slope, Intercept, R2 float64
}

// LinearFit fits y = a·x + b by ordinary least squares.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("%w: length mismatch %d vs %d", ErrInput, len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("%w: need at least 2 points", ErrInput)
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("%w: degenerate x values", ErrInput)
	}
	f := Fit{Slope: sxy / sxx}
	f.Intercept = my - float64(f.Slope*mx)
	if syy == 0 {
		f.R2 = 1
	} else {
		f.R2 = (sxy * sxy) / (sxx * syy)
	}
	return f, nil
}

// LogLogFit fits log(y) = e·log(x) + c, i.e. the power law y = C·x^e,
// returning the exponent e as Slope. All inputs must be positive.
func LogLogFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("%w: length mismatch", ErrInput)
	}
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return Fit{}, fmt.Errorf("%w: log-log fit requires positive data", ErrInput)
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	return LinearFit(lx, ly)
}

// SemiLogFit fits y = a·log(x) + b (logarithmic growth, the expected
// shape of COBRA cover time on K_n and expanders). xs must be positive.
func SemiLogFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("%w: length mismatch", ErrInput)
	}
	lx := make([]float64, len(xs))
	for i := range xs {
		if xs[i] <= 0 {
			return Fit{}, fmt.Errorf("%w: semi-log fit requires positive x", ErrInput)
		}
		lx[i] = math.Log(xs[i])
	}
	return LinearFit(lx, ys)
}
