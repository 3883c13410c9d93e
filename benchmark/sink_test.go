package main

import (
	"testing"
	"time"

	"sspd/internal/stream"
)

func resultTuple(seq uint64, ts time.Time) stream.Tuple {
	return stream.NewTuple("quotes", seq, ts, stream.String("S0001"), stream.Float(float64(seq)), stream.Int(int64(seq)))
}

// expectFor builds the expectation of one query that delivers seqs.
func expectFor(seqs ...uint64) *expectation {
	e := &expectation{PerQuery: make([]queryExpect, 1)}
	for _, s := range seqs {
		tu := resultTuple(s, time.Time{})
		e.PerQuery[0].Count++
		e.PerQuery[0].Sum += resultHash(tu.Seq, valuesHash(tu.Values))
	}
	return e
}

func TestSinkVerdicts(t *testing.T) {
	cases := []struct {
		name    string
		deliver []uint64
		want    verdict
		correct bool
		failed  uint64
	}{
		{"exact, any order", []uint64{9, 3, 5}, verdict{Expected: 3, Delivered: 3}, true, 0},
		{"one missing", []uint64{3, 9}, verdict{Expected: 3, Delivered: 2, Missing: 1}, true, 1},
		{"one duplicated", []uint64{3, 5, 5, 9}, verdict{Expected: 3, Delivered: 4, Duplicates: 1}, false, 1},
		{"never published", []uint64{3, 5, 9, 64 * 4}, verdict{Expected: 3, Delivered: 4, Stray: 1}, false, 1},
		{"one duplicated, one missing", []uint64{3, 5, 5}, verdict{Expected: 3, Delivered: 3, Duplicates: 1, Missing: 1}, false, 2},
		{"right count, wrong tuple", []uint64{3, 5, 10}, verdict{Expected: 3, Delivered: 3, Mismatched: 3}, false, 3},
	}
	for _, c := range cases {
		exp := expectFor(3, 5, 9)
		col := newCollector(exp, 64*4)
		cb := col.callback(0)
		for _, s := range c.deliver {
			cb(resultTuple(s, time.Time{}))
		}
		got := col.verify(exp)
		bad := got.BadQueries
		got.BadQueries = nil
		if got.Expected != c.want.Expected || got.Delivered != c.want.Delivered || got.Missing != c.want.Missing ||
			got.Extra != c.want.Extra || got.Duplicates != c.want.Duplicates || got.Stray != c.want.Stray || got.Mismatched != c.want.Mismatched {
			t.Errorf("%s: verdict %+v, want %+v", c.name, got, c.want)
		}
		if got.correct() != c.correct || got.failed() != c.failed {
			t.Errorf("%s: correct %v failed %d, want %v %d", c.name, got.correct(), got.failed(), c.correct, c.failed)
		}
		if (len(bad) > 0) == c.correct {
			t.Errorf("%s: bad queries %v", c.name, bad)
		}
		if col.delivered.Load() != uint64(len(c.deliver)) {
			t.Errorf("%s: delivered counter %d", c.name, col.delivered.Load())
		}
	}
}

func TestSinkLatencySlices(t *testing.T) {
	// 100 slices of 20 input tuples, each triggering one result.
	const slices, per = 100, 20
	const n = slices * per
	exp := &expectation{PerQuery: []queryExpect{{Count: n, Paced: n}}}
	col := newCollector(exp, 32+n)
	col.pacedFirst, col.pacedTuples = 32, n
	cb := col.callback(0)
	col.timing.Store(true)
	// A result of a tuple published before the paced phase is not sampled.
	cb(resultTuple(1, time.Now().Add(-time.Hour)))
	// 1 ms latency, except in slices 3 to 60, which a stall and its
	// backlog pushed to 80 ms.
	for s := uint64(0); s < slices; s++ {
		d := time.Millisecond
		if s >= 3 && s <= 60 {
			d = 80 * time.Millisecond
		}
		for j := uint64(0); j < per; j++ {
			cb(resultTuple(32+per*s+j, time.Now().Add(-d)))
		}
	}
	all, bySlice := col.latencies(per)
	if len(all) != n || len(bySlice) != slices {
		t.Fatalf("%d samples in %d slices, want %d in %d", len(all), len(bySlice), n, slices)
	}
	for s, ls := range bySlice {
		if len(ls) != per {
			t.Fatalf("slice %d holds %d samples, want %d", s, len(ls), per)
		}
		lo, hi := 0.9, 3.0
		if s >= 3 && s <= 60 {
			lo, hi = 79, 83
		}
		if ls[0] < lo || ls[per-1] > hi {
			t.Errorf("slice %d latencies %v ms, want within [%v, %v]", s, ls, lo, hi)
		}
	}
	if p90 := slicedPercentile(bySlice, 0.9); p90 > 3 {
		t.Errorf("sliced p90 %v ms: the stalled slices leaked into it", p90)
	}
	if p50 := percentile(all, 0.5); p50 < 79 {
		t.Errorf("whole-phase median %v ms should show the stall", p50)
	}
	// A slice with too few samples has no percentiles of its own.
	if got := slicedPercentile([][]float64{{0.1}, {5, 5, 5, 5, 5, 5, 5, 5, 5, 5}}, 0.5); got != 5 {
		t.Errorf("sliced median %v, want 5: the one-sample slice must not count", got)
	}
}

func TestSinkCallbackDoesNotAllocate(t *testing.T) {
	exp := &expectation{PerQuery: []queryExpect{{Count: 1000, Paced: 1000}}}
	col := newCollector(exp, 1<<16)
	col.pacedTuples = 1 << 16
	col.timing.Store(true)
	cb := col.callback(0)
	seq := uint64(0)
	ts := time.Now()
	if n := testing.AllocsPerRun(500, func() {
		cb(resultTuple(seq, ts))
		seq++
	}); n > 1 { // resultTuple's variadic values are the one allocation
		t.Errorf("the result callback allocates %v times per result", n-1)
	}
}

func TestWaitFor(t *testing.T) {
	col := newCollector(&expectation{PerQuery: make([]queryExpect, 2)}, 64)
	cb, other := col.callback(0), col.callback(1)
	if got := col.waitFor(0, 0, time.Second); got != 0 {
		t.Errorf("waitFor(0) = %d", got)
	}
	go func() {
		for s := uint64(0); s < 10; s++ {
			time.Sleep(time.Millisecond)
			other(resultTuple(s, time.Time{}))
			other(resultTuple(s+10, time.Time{}))
			cb(resultTuple(s, time.Time{}))
		}
	}()
	// Another query's results do not count: 20 of them arrive with the 10.
	if got := col.waitFor(0, 10, 2*time.Second); got != 10 {
		t.Errorf("waitFor(10) returned at %d", got)
	}
	// Nothing more is coming: the wait gives up after the stall time and
	// reports what it has.
	start := time.Now()
	if got := col.waitFor(0, 12, 30*time.Millisecond); got != 10 {
		t.Errorf("stalled waitFor returned %d, want 10", got)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 2*time.Second {
		t.Errorf("stalled waitFor took %v", d)
	}
}
