package metrics

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// quantile reads the q-quantile from the histogram's reservoir.
func quantile(h *Histogram, q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileOf(slices.Sorted(slices.Values(h.samples)), q)
}

func TestCounterBasics(t *testing.T) {
	var c Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter = %d, want 0", got)
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter after negative add = %d, want 5 (monotonic)", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("counter after reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("concurrent counter = %d, want %d", got, workers*perWorker)
	}
}

func TestByteMeter(t *testing.T) {
	var m ByteMeter
	m.Record(100)
	m.Record(50)
	m.Record(-5) // ignored
	if got := m.Bytes(); got != 150 {
		t.Fatalf("bytes = %d, want 150", got)
	}
	if got := m.Messages(); got != 2 {
		t.Fatalf("messages = %d, want 2", got)
	}
	m.Reset()
	if m.Bytes() != 0 || m.Messages() != 0 {
		t.Fatal("reset did not zero the meter")
	}
}

func TestHistogramBasicStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.ObserveN(v, 1)
	}
	if got := h.Snapshot().Count; got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Snapshot().Mean; got != 3 {
		t.Fatalf("mean = %v, want 3", got)
	}
	if got := h.Snapshot().Min; got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := h.Snapshot().Max; got != 5 {
		t.Fatalf("max = %v, want 5", got)
	}
	if got := quantile(&h, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile(&h, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := quantile(&h, 1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if quantile(&h, 0.5) != 0 || h.Snapshot().Mean != 0 || h.Snapshot().Min != 0 || h.Snapshot().Max != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	snap := h.Snapshot()
	if snap.Count != 0 {
		t.Fatalf("empty snapshot count = %d", snap.Count)
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	var h Histogram
	h.ObserveN(7, 1)
	if got := quantile(&h, -1); got != 7 {
		t.Fatalf("q(-1) = %v, want 7", got)
	}
	if got := quantile(&h, 2); got != 7 {
		t.Fatalf("q(2) = %v, want 7", got)
	}
}

func TestHistogramReservoirOverflow(t *testing.T) {
	var h Histogram
	n := histogramReservoir * 4
	for i := 0; i < n; i++ {
		h.ObserveN(float64(i), 1)
	}
	if got := h.Snapshot().Count; got != int64(n) {
		t.Fatalf("count = %d, want %d", got, n)
	}
	// Median of 0..n-1 should be roughly n/2; allow generous sampling error.
	med := quantile(&h, 0.5)
	if med < float64(n)/4 || med > 3*float64(n)/4 {
		t.Fatalf("sampled median %v wildly off for uniform 0..%d", med, n-1)
	}
	// Mean is exact regardless of reservoir.
	wantMean := float64(n-1) / 2
	if math.Abs(h.Snapshot().Mean-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", h.Snapshot().Mean, wantMean)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.ObserveN(1, 1)
	h.Reset()
	if h.Snapshot().Count != 0 || h.Snapshot().Mean != 0 {
		t.Fatal("reset did not clear histogram")
	}
	h.ObserveN(9, 1)
	if got := h.Snapshot().Min; got != 9 {
		t.Fatalf("min after reset+observe = %v, want 9", got)
	}
}

func TestSnapshotString(t *testing.T) {
	var h Histogram
	h.ObserveN(2, 1)
	s := h.Snapshot().String()
	if s == "" {
		t.Fatal("snapshot string empty")
	}
}

func TestEWMAConvergence(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Initialized() {
		t.Fatal("fresh EWMA should not be initialized")
	}
	e.Update(10)
	if got := e.Value(); got != 10 {
		t.Fatalf("first update = %v, want 10 (seeded)", got)
	}
	for i := 0; i < 50; i++ {
		e.Update(20)
	}
	if got := e.Value(); math.Abs(got-20) > 0.01 {
		t.Fatalf("EWMA did not converge to 20, got %v", got)
	}
}

func TestEWMAInvalidAlpha(t *testing.T) {
	e := NewEWMA(-1)
	e.Update(1)
	e.Update(2)
	v := e.Value()
	if v <= 1 || v >= 2 {
		t.Fatalf("EWMA with defaulted alpha should land between samples, got %v", v)
	}
}

// Property: histogram quantiles are monotone in q and bracketed by min/max.
func TestHistogramQuantileMonotoneProperty(t *testing.T) {
	f := func(samples []float64) bool {
		var h Histogram
		valid := 0
		for _, s := range samples {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			h.ObserveN(s, 1)
			valid++
		}
		if valid == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := quantile(&h, q)
			if v < prev {
				return false
			}
			if v < h.Snapshot().Min || v > h.Snapshot().Max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: counter value equals sum of positive deltas.
func TestCounterSumProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		var c Counter
		var want int64
		for _, d := range deltas {
			c.Add(int64(d))
			if d > 0 {
				want += int64(d)
			}
		}
		return c.Value() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
