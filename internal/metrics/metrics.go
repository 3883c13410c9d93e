// Package metrics provides the lightweight measurement primitives used
// throughout sspd: atomic counters, byte meters, streaming histograms
// with quantile estimation, and EWMAs.
//
// All types are safe for concurrent use and have useful zero values.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are ignored so the
// counter stays monotonic.
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset sets the counter back to zero. It is intended for experiment
// harnesses that reuse a counter between runs.
func (c *Counter) Reset() { c.v.Store(0) }

// ByteMeter counts bytes and messages, typically one per link or stream.
type ByteMeter struct {
	bytes    atomic.Int64
	messages atomic.Int64
}

// Record adds one message of n bytes.
func (m *ByteMeter) Record(n int) {
	if n < 0 {
		return
	}
	m.bytes.Add(int64(n))
	m.messages.Add(1)
}

// Bytes returns the total bytes recorded.
func (m *ByteMeter) Bytes() int64 { return m.bytes.Load() }

// Messages returns the total number of messages recorded.
func (m *ByteMeter) Messages() int64 { return m.messages.Load() }

// Reset zeroes the meter.
func (m *ByteMeter) Reset() {
	m.bytes.Store(0)
	m.messages.Store(0)
}

// Histogram is a streaming histogram of float64 samples. It keeps an exact
// reservoir up to a bound and degrades to uniform reservoir sampling
// beyond it, which is adequate for the latency distributions measured in
// the experiments.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	count   int64
	sum     float64
	min     float64
	max     float64
	// rngState drives the reservoir-sampling replacement index. A trivial
	// xorshift generator avoids importing math/rand here.
	rngState uint64
}

const histogramReservoir = 4096

// ObserveN records n identical samples of v with one lock acquisition —
// the batch-granularity write path of the vectorized engine, which
// measures per-batch and attributes per-tuple. Count and Sum advance by
// n and n*v (so Mean stays a per-tuple mean and Sum stays total
// seconds), while the reservoir receives a single representative
// sample: quantiles are then per-batch-mean order statistics, an
// acceptable coarsening the engine's PR computation (which uses means)
// never observes.
func (h *Histogram) ObserveN(v float64, n int64) {
	if n <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * float64(n)
	if len(h.samples) < histogramReservoir {
		h.samples = append(h.samples, v)
		return
	}
	if h.rngState == 0 {
		h.rngState = 0x9E3779B97F4A7C15
	}
	h.rngState ^= h.rngState << 13
	h.rngState ^= h.rngState >> 7
	h.rngState ^= h.rngState << 17
	j := h.rngState % uint64(h.count)
	if j < uint64(len(h.samples)) {
		h.samples[j] = v
	}
}

// quantileOf reads the q-quantile from an already-sorted sample slice.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Reset clears all recorded samples.
func (h *Histogram) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.samples = h.samples[:0]
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count int64
	Sum   float64
	Mean  float64
	Min   float64
	Max   float64
	P50   float64
	P95   float64
	P99   float64
	// Estimated marks quantiles computed after reservoir degradation:
	// they are subsample estimates, not exact order statistics.
	Estimated bool
}

// Snapshot returns a summary of the histogram. The whole summary is
// computed under one lock acquisition so it is internally consistent: a
// concurrent ObserveN can never yield a snapshot whose Count, Mean, and
// quantiles disagree about which samples they saw.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Estimated: h.count > histogramReservoir}
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	if len(h.samples) > 0 {
		sorted := make([]float64, len(h.samples))
		copy(sorted, h.samples)
		sort.Float64s(sorted)
		s.P50 = quantileOf(sorted, 0.50)
		s.P95 = quantileOf(sorted, 0.95)
		s.P99 = quantileOf(sorted, 0.99)
	}
	return s
}

// String implements fmt.Stringer for concise experiment output.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}

// EWMA is an exponentially weighted moving average, used by the adaptive
// components (the Adaptation Module, load estimators) to track drifting
// statistics such as selectivities and queue lengths.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
// Larger alpha weights recent samples more heavily.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Update folds one sample into the average and returns the new value.
func (e *EWMA) Update(sample float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.init {
		e.value = sample
		e.init = true
	} else {
		e.value = e.alpha*sample + (1-e.alpha)*e.value
	}
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Initialized reports whether Update has been called at least once.
func (e *EWMA) Initialized() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.init
}
