package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates a sample one observation at a time and produces a
// Summary in O(1) memory: mean and standard deviation via Welford's
// update, min/max exactly, and the quartiles via the P² streaming
// quantile estimator of Jain & Chlamtac (1985). It exists for the batch
// campaign aggregator (internal/batch), which must summarise millions of
// trials without materializing them.
//
// Exactness: N, Mean, Std, StdErr, the CI bounds, Min and Max match
// Summarize up to floating-point associativity. The quartiles are exact
// while N <= 5 and estimates afterwards (P² keeps five markers per
// quantile; its error vanishes as the sample grows). The accumulated
// state depends on observation order, so callers that need determinism
// must feed observations in a fixed order.
type Online struct {
	n        int
	mean, m2 float64
	min, max float64
	q25      p2Estimator
	med      p2Estimator
	q75      p2Estimator
}

// NewOnline returns an empty accumulator.
func NewOnline() *Online {
	return &Online{
		q25: p2Estimator{q: 0.25},
		med: p2Estimator{q: 0.5},
		q75: p2Estimator{q: 0.75},
	}
}

// Add folds one observation into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += float64(d * (x - o.mean))
	o.q25.add(x)
	o.med.add(x)
	o.q75.add(x)
}

// N returns the number of observations so far.
func (o *Online) N() int { return o.n }

// Clone returns an independent copy of the accumulator: folding the same
// further observations into the copy and into the original yields
// identical state. Online holds no reference fields (the P² estimators
// use fixed-size arrays), so a value copy is a deep copy. The batch
// resume path clones a replayed prefix fold and continues it, so a
// resumed campaign's final aggregate is bit-identical to the
// uninterrupted run's.
func (o *Online) Clone() *Online {
	c := *o
	return &c
}

// Summary renders the accumulated state. It can be called at any time;
// the accumulator remains usable afterwards.
func (o *Online) Summary() (Summary, error) {
	if o.n == 0 {
		return Summary{}, fmt.Errorf("%w: empty sample", ErrInput)
	}
	s := Summary{
		N:      o.n,
		Mean:   o.mean,
		Min:    o.min,
		Max:    o.max,
		Median: o.med.value(),
		Q25:    o.q25.value(),
		Q75:    o.q75.value(),
	}
	if o.n > 1 {
		s.Std = math.Sqrt(o.m2 / float64(o.n-1))
	}
	s.StdErr = s.Std / math.Sqrt(float64(s.N))
	s.CI95Lo = s.Mean - float64(1.96*s.StdErr)
	s.CI95Hi = s.Mean + float64(1.96*s.StdErr)
	return s, nil
}

// p2Estimator tracks one quantile with the five-marker P² method.
type p2Estimator struct {
	q   float64
	cnt int
	n   [5]float64 // marker positions (1-based observation counts)
	h   [5]float64 // marker heights (quantile estimates)
	buf [5]float64 // first five observations, before marker init
}

func (p *p2Estimator) add(x float64) {
	if p.cnt < 5 {
		p.buf[p.cnt] = x
		p.cnt++
		if p.cnt == 5 {
			sorted := p.buf
			sort.Float64s(sorted[:])
			p.h = sorted
			p.n = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	p.cnt++

	// Locate the cell and absorb new extremes.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		p.n[i]++
	}

	// Nudge the interior markers toward their desired positions.
	want := [5]float64{1, 0, 0, 0, float64(p.cnt)}
	want[1] = 1 + float64(float64(p.cnt-1)*p.q/2)
	want[2] = 1 + float64(float64(p.cnt-1)*p.q)
	want[3] = 1 + float64(float64(p.cnt-1)*(1+p.q)/2)
	for i := 1; i <= 3; i++ {
		d := want[i] - p.n[i]
		if (d >= 1 && p.n[i+1]-p.n[i] > 1) || (d <= -1 && p.n[i-1]-p.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			if hp := p.parabolic(i, s); p.h[i-1] < hp && hp < p.h[i+1] {
				p.h[i] = hp
			} else {
				p.h[i] = p.linear(i, s)
			}
			p.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by s ∈ {−1, +1}.
func (p *p2Estimator) parabolic(i int, s float64) float64 {
	num1 := (p.n[i] - p.n[i-1] + s) * (p.h[i+1] - p.h[i]) / (p.n[i+1] - p.n[i])
	num2 := (p.n[i+1] - p.n[i] - s) * (p.h[i] - p.h[i-1]) / (p.n[i] - p.n[i-1])
	return p.h[i] + float64(s/(p.n[i+1]-p.n[i-1])*(num1+num2))
}

// linear is the fallback when the parabolic prediction leaves the bracket.
func (p *p2Estimator) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.h[i] + s*(p.h[j]-p.h[i])/(p.n[j]-p.n[i])
}

// value returns the current quantile estimate; exact for cnt <= 5 (buf
// still holds the whole sample there — add only copies it into markers).
func (p *p2Estimator) value() float64 {
	if p.cnt == 0 {
		return math.NaN()
	}
	if p.cnt <= 5 {
		sorted := append([]float64(nil), p.buf[:p.cnt]...)
		sort.Float64s(sorted)
		return Quantile(sorted, p.q)
	}
	return p.h[2]
}
