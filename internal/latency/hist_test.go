package latency

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBoundsAscending(t *testing.T) {
	b := Bounds()
	if len(b) != NumBounds {
		t.Fatalf("Bounds() len = %d, want %d", len(b), NumBounds)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
	if b[0] != 1e-6 || b[len(b)-1] != 100 {
		t.Fatalf("bounds span [%g, %g], want [1e-6, 100]", b[0], b[len(b)-1])
	}
}

func TestBucketIndexBoundaries(t *testing.T) {
	b := Bounds()
	for i, ub := range b {
		// A value exactly at an upper boundary belongs to that bucket;
		// epsilon above belongs to the next.
		if got := bucketIndex(ub); got != i {
			t.Fatalf("bucketIndex(%g) = %d, want %d", ub, got, i)
		}
		if got := bucketIndex(ub * 1.0000001); got != i+1 {
			t.Fatalf("bucketIndex(just above %g) = %d, want %d", ub, got, i+1)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Fatalf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(1e9); got != NumBounds {
		t.Fatalf("bucketIndex(huge) = %d, want +Inf bucket %d", got, NumBounds)
	}
}

// exactQuantile mirrors metrics.quantileOf on the full sample set.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// adversarialDistributions exercise the shapes that break naive
// histograms: heavy tails, bimodal spikes straddling boundary edges,
// constants sitting exactly on boundaries, and near-zero floods.
func adversarialDistributions(r *rand.Rand, n int) map[string][]float64 {
	out := make(map[string][]float64)
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = 1e-6 * math.Pow(10, r.Float64()*7) // log-uniform 1µs..10s
	}
	out["log_uniform"] = uni

	heavy := make([]float64, n)
	for i := range heavy {
		// Pareto-ish: most samples ~1ms, 1% out to tens of seconds.
		heavy[i] = 1e-3 / math.Pow(1-r.Float64(), 1.5) / 1e3
	}
	out["heavy_tail"] = heavy

	bim := make([]float64, n)
	for i := range bim {
		if r.Intn(2) == 0 {
			bim[i] = 9.9e-5 + r.Float64()*2e-6 // straddles the 1e-4 boundary
		} else {
			bim[i] = 0.3 + r.Float64()*0.01
		}
	}
	out["bimodal_boundary"] = bim

	konst := make([]float64, n)
	for i := range konst {
		konst[i] = 1e-3 // exactly on a boundary
	}
	out["constant_on_boundary"] = konst

	tiny := make([]float64, n)
	for i := range tiny {
		tiny[i] = r.Float64() * 2e-6 // underflow region
	}
	out["near_zero"] = tiny
	return out
}

// TestQuantileErrorBound: for every adversarial distribution, the
// histogram's quantile estimate must land in the same bucket as the
// exact sample quantile (the scheme's one-bucket accuracy contract),
// which bounds the relative error by the ≈1.8 bucket ratio.
func TestQuantileErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for name, samples := range adversarialDistributions(r, 20000) {
		var h Hist
		for _, v := range samples {
			h.Observe(v)
		}
		snap := h.Snapshot()
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			got := snap.Quantile(q)
			want := exactQuantile(sorted, q)
			gb, wb := bucketIndex(got), bucketIndex(want)
			if wb >= NumBounds { // beyond the last finite boundary
				wb = NumBounds - 1
			}
			if d := gb - wb; d < -1 || d > 1 {
				t.Errorf("%s: q=%g estimate %g (bucket %d) vs exact %g (bucket %d)",
					name, q, got, gb, want, wb)
			}
		}
		if snap.Count != uint64(len(samples)) {
			t.Errorf("%s: count %d != %d", name, snap.Count, len(samples))
		}
		var sum float64
		for _, v := range samples {
			sum += v
		}
		if math.Abs(snap.Sum-sum) > 1e-6*math.Abs(sum)+1e-12 {
			t.Errorf("%s: sum %g != %g", name, snap.Sum, sum)
		}
	}
}

// TestMergeIsExact: merging N per-entity snapshots must be bit-identical
// (in bucket space) to one histogram observing the union — the property
// reservoirs lack and the reason this type exists.
func TestMergeIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const entities = 5
	var whole Hist
	parts := make([]*Hist, entities)
	for i := range parts {
		parts[i] = &Hist{}
	}
	for name, samples := range adversarialDistributions(r, 4000) {
		_ = name
		for i, v := range samples {
			whole.Observe(v)
			parts[i%entities].Observe(v)
		}
	}
	var merged HistSnapshot
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	want := whole.Snapshot()
	if merged.Count != want.Count {
		t.Fatalf("merged count %d != whole %d", merged.Count, want.Count)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: merged %d != whole %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	if math.Abs(merged.Sum-want.Sum) > 1e-6*want.Sum {
		t.Fatalf("merged sum %g != whole %g", merged.Sum, want.Sum)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if m, w := merged.Quantile(q), want.Quantile(q); m != w {
			t.Fatalf("q=%g: merged %g != whole %g", q, m, w)
		}
	}
}

func TestSubWindows(t *testing.T) {
	var h Hist
	h.Observe(1e-3)
	h.Observe(2e-3)
	prev := h.Snapshot()
	h.Observe(0.5)
	h.Observe(0.6)
	win := h.Snapshot().Sub(prev)
	if win.Count != 2 {
		t.Fatalf("window count = %d, want 2", win.Count)
	}
	if q := win.Quantile(0.5); q < 0.3 || q > 1 {
		t.Fatalf("window p50 = %g, want ~0.5", q)
	}
	// Backwards snapshots (row expiry) clamp, never underflow.
	empty := prev.Sub(h.Snapshot())
	if empty.Count != 0 || empty.Sum != 0 {
		t.Fatalf("backwards Sub = %+v, want zero", empty)
	}
}

func TestMergeRejectsForeignScheme(t *testing.T) {
	var s HistSnapshot
	s.Merge(HistSnapshot{Counts: []uint64{1, 2, 3}, Sum: 1, Count: 6})
	if s.Count != 0 {
		t.Fatalf("merge of a foreign bucket scheme was not rejected: %+v", s)
	}
}

func TestObserveClampsNegative(t *testing.T) {
	var h Hist
	h.Observe(-1)
	h.Observe(math.NaN())
	s := h.Snapshot()
	if s.Count != 2 || s.Counts[0] != 2 || s.Sum != 0 {
		t.Fatalf("negative/NaN observe: %+v", s)
	}
}
