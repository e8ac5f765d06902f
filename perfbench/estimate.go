package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs, interpolating linearly between order
// statistics (the "type 7" definition). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// minTail is how many samples must lie above a reported p95.
const minTail = 10

// tailCount is how many samples lie strictly above the p95 of xs.
func tailCount(xs []float64) int {
	p := quantile(xs, 0.95)
	n := 0
	for _, x := range xs {
		if x > p {
			n++
		}
	}
	return n
}

// mad is the median absolute deviation from the median.
func mad(xs []float64) float64 {
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// normalP95 estimates the 95th percentile as median + 1.645·σ with σ
// estimated robustly as 1.4826·MAD. A closed-loop run sends 20 to 40
// jobs, too few for an empirical p95 with minTail samples beyond it; the
// empirical one is the second-largest job and jumps run to run.
func normalP95(xs []float64) float64 { return median(xs) + 1.645*1.4826*mad(xs) }

// exponents are a workload's sensitivities to host speed: α in "the
// metric moves as probe^α", fitted by least squares of the log metric on
// the log probe rate over runs of the same code spread across host
// states, then rounded to a quarter (see README.md). Tail latency is the
// most sensitive: a slower host also queues more. Fleet set-up is mostly
// the workers' first poll interval, which host speed hardly moves.
type exponents struct{ rate, p50, p95, setup float64 }

var hostExponents = map[string]exponents{
	paperSweep: {rate: 0.75, p50: 0.75, p95: 0.75, setup: 1},
	smallJobs:  {rate: 0.5, p50: 0.5, p95: 1.5, setup: 1},
	fleetSweep: {rate: 0.5, p50: 0.5, p95: 0.5, setup: 0.25},
}

// hostFactor is how much faster than this host the reference host would
// have been, for a metric with sensitivity exponent, while the probe ran
// at probeRate: rates are multiplied by it and times divided, which
// cancels the host drift the metric shares with the probe.
func hostFactor(probeRate, exponent float64) float64 {
	return math.Pow(refProbeRate/probeRate, exponent)
}
