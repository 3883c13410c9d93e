// Package latency is sspd's end-to-end latency attribution plane
// (DESIGN.md §11): it turns the sampled trace spans of internal/trace
// into a continuous, cluster-federated latency decomposition — per-stage
// and per-query log-bucket histograms, a *measured* Performance Ratio
// next to the engine-estimated one, and declarative SLO rules evaluated
// against the federated view.
//
// The foundation is Hist, a mergeable fixed-boundary log-bucket
// histogram. The existing metrics.Histogram is a sampling reservoir:
// fine for one entity's local quantiles, but reservoirs cannot be merged
// across entities without re-weighting bias. Hist trades per-sample
// exactness for a fixed global bucket scheme, which makes the merge
// operation a bucket-wise sum — exact, associative, and commutative — so
// any number of per-entity snapshots fold into one cluster histogram
// whose quantiles carry the same one-bucket error bound as each input.
package latency

import (
	"math"
	"sync"
)

// The fixed bucket scheme: boundaries are log-spaced at four buckets per
// decade from 1µs to 100s (inclusive), plus an implicit +Inf bucket.
// Every Hist in every process shares these boundaries, which is what
// makes bucket-wise merging exact. Four buckets per decade bounds any
// quantile estimate's relative error by the bucket ratio 10^(1/4) ≈ 1.78.
const (
	// bucketsPerDecade is the log resolution of the scheme.
	bucketsPerDecade = 4
	// minBound is the first upper boundary in seconds (1µs).
	minBound = 1e-6
	// numDecades spans 1µs..100s.
	numDecades = 8
	// NumBounds is the number of finite bucket boundaries.
	NumBounds = numDecades*bucketsPerDecade + 1
	// NumBuckets counts all buckets including the +Inf overflow bucket.
	NumBuckets = NumBounds + 1
)

// decadeSteps are the in-decade multipliers: near-log-even steps with
// ratios ≈1.8 that render as short `le` values (1.8e-06, 3.2e-06, ...).
var decadeSteps = [bucketsPerDecade]float64{1, 1.8, 3.2, 5.6}

// bounds holds the shared finite upper boundaries, ascending, in seconds.
var bounds = func() [NumBounds]float64 {
	var b [NumBounds]float64
	for i := range b {
		d, s := i/bucketsPerDecade, i%bucketsPerDecade
		b[i] = minBound * math.Pow(10, float64(d)) * decadeSteps[s]
	}
	return b
}()

// Bounds returns a copy of the scheme's finite upper boundaries in
// seconds. The registry renders them as `le` label values.
func Bounds() []float64 {
	out := make([]float64, NumBounds)
	copy(out[:], bounds[:])
	return out
}

// bucketIndex maps a sample in seconds to its bucket. Values at or below
// the smallest boundary land in bucket 0; values above the largest land
// in the +Inf bucket.
func bucketIndex(v float64) int {
	if v <= bounds[0] {
		return 0
	}
	if v > bounds[NumBounds-1] {
		return NumBounds // +Inf bucket
	}
	// log-position, then nudge across boundary rounding: float error in
	// Pow/Log10 can put an exact boundary value on either side, so probe
	// the neighbourhood instead of trusting the rounded index blindly.
	i := int(math.Ceil(math.Log10(v/minBound) * bucketsPerDecade))
	if i < 0 {
		i = 0
	}
	if i >= NumBounds {
		i = NumBounds - 1
	}
	for i > 0 && v <= bounds[i-1] {
		i--
	}
	for i < NumBounds-1 && v > bounds[i] {
		i++
	}
	return i
}

// Hist is a mergeable fixed-boundary log-bucket histogram of seconds.
// The zero value is ready to use; all methods are safe for concurrent
// use. Observations are cumulative — snapshot differencing (Sub) gives
// windowed views.
type Hist struct {
	mu     sync.Mutex
	counts [NumBuckets]uint64
	sum    float64
	count  uint64
}

// Observe records one sample in seconds. Negative samples (possible only
// through clock misuse; Go's monotonic clock never produces them between
// two reads in one process) clamp to zero.
func (h *Hist) Observe(seconds float64) {
	if seconds < 0 || math.IsNaN(seconds) {
		seconds = 0
	}
	i := bucketIndex(seconds)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += seconds
	h.mu.Unlock()
}

// Snapshot returns a point-in-time copy, internally consistent under one
// lock acquisition.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{Sum: h.sum, Count: h.count}
	s.Counts = append([]uint64(nil), h.counts[:]...)
	return s
}

// HistSnapshot is one histogram's state: per-bucket (non-cumulative)
// counts over the shared boundary scheme, with the +Inf bucket last.
// Snapshots are the federation's wire unit: they marshal to JSON inside
// coordinator digest rows and merge bucket-wise at the root.
type HistSnapshot struct {
	Counts []uint64 `json:"counts,omitempty"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Merge folds other into s bucket-wise. Merging is exact: the result is
// identical to a histogram that observed both input streams directly.
// Snapshots from older schemes (different bucket count) are ignored
// rather than mis-binned.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	if other.Count == 0 {
		return
	}
	if len(other.Counts) != NumBuckets {
		return
	}
	if len(s.Counts) != NumBuckets {
		s.Counts = make([]uint64, NumBuckets)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Sum += other.Sum
	s.Count += other.Count
}

// Sub returns the windowed difference s − prev, clamping any bucket that
// went backwards (a federated row expiring and re-appearing) to zero.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if len(s.Counts) != NumBuckets {
		return HistSnapshot{}
	}
	out := HistSnapshot{Counts: make([]uint64, NumBuckets)}
	for i, c := range s.Counts {
		var p uint64
		if len(prev.Counts) == NumBuckets {
			p = prev.Counts[i]
		}
		if c > p {
			out.Counts[i] = c - p
			out.Count += c - p
		}
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	return out
}

// Mean returns the arithmetic mean of the observed samples (0 if empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) in seconds by linear
// interpolation inside the bucket holding the target rank. The estimate
// is always inside the true sample's bucket, so the relative error is
// bounded by the bucket ratio 10^(1/4) ≈ 1.78; samples beyond the last
// finite boundary report that boundary.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) != NumBuckets {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count-1)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			if i >= NumBounds {
				return bounds[NumBounds-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			// Position of the rank within this bucket's count mass.
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return bounds[NumBounds-1]
}
