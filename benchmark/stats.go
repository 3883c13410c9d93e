package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// sample with linear interpolation between neighbours; 0 for an empty
// sample.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts a copy of vs and returns its middle value.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// relGap is how much worse b is than a as a share of a, signed so that
// positive always means "b is worse" for the metric's direction.
func relGap(a, b float64, lowerIsBetter bool) float64 {
	if a == 0 {
		return 0
	}
	g := (b - a) / math.Abs(a)
	if !lowerIsBetter {
		g = -g
	}
	return g
}

// calmShare is the share of a timed phase's slices that a reported value
// is taken from: the best tenth. The reference box is a VM on a shared host
// that takes its processors away for milliseconds to seconds at a time, a
// tenth to a third of the time in a busy minute; interference of that kind
// only ever makes a slice worse, and with a quarter of the slices kept a
// busy minute still moved throughput by 20 % and median latency tenfold,
// where the best tenth of short slices moved by 10–20 %.
const calmShare = 0.10

// calmBest is the mean of the best calmShare of vs (at least one value):
// the highest when higher is better, the lowest otherwise.
func calmBest(vs []float64, higherIsBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := max(int(float64(len(s))*calmShare), 1)
	if higherIsBetter {
		s = s[len(s)-n:]
	} else {
		s = s[:n]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(n)
}
