package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.9, 46}, {1, 50}, {-1, 10}, {2, 50},
	}
	for _, c := range cases {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of empty sample = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 9, 3}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median sorted its argument in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestCalmBest(t *testing.T) {
	vs := make([]float64, 20) // 20, 1, 19, 2, ...: the best tenth is two values
	for i := range vs {
		vs[i] = float64(i/2 + 1)
		if i%2 == 0 {
			vs[i] = float64(20 - i/2)
		}
	}
	if got := calmBest(vs, true); got != 19.5 {
		t.Errorf("best tenth, higher better = %v, want 19.5", got)
	}
	if got := calmBest(vs, false); got != 1.5 {
		t.Errorf("best tenth, lower better = %v, want 1.5", got)
	}
	if got := calmBest([]float64{3, 9}, true); got != 9 {
		t.Errorf("best tenth of two = %v, want the best one", got)
	}
	if got := calmBest(nil, true); got != 0 {
		t.Errorf("best tenth of nothing = %v, want 0", got)
	}
}

func TestRelGap(t *testing.T) {
	// Positive always means the second value is worse.
	if g := relGap(100, 110, true); math.Abs(g-0.10) > 1e-9 {
		t.Errorf("latency 100→110: gap %v, want +0.10", g)
	}
	if g := relGap(100, 90, false); math.Abs(g-0.10) > 1e-9 {
		t.Errorf("throughput 100→90: gap %v, want +0.10", g)
	}
	if g := relGap(100, 120, false); math.Abs(g+0.20) > 1e-9 {
		t.Errorf("throughput 100→120: gap %v, want -0.20", g)
	}
}
