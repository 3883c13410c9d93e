package stream

import (
	"math"
	"testing"
	"time"
)

func colTestBatch(n int) Batch {
	b := make(Batch, 0, n)
	syms := []string{"ibm", "msft", "goog", "amzn"}
	for i := 0; i < n; i++ {
		b = append(b, NewTuple("quotes", uint64(i), time.Unix(0, int64(i)),
			String(syms[i%len(syms)]), Float(float64(i%100)), Int(int64(i))))
	}
	return b
}

func TestColBatchColumnsMatchRows(t *testing.T) {
	b := colTestBatch(64)
	cb := NewColBatch()
	cb.Reset(b)
	if cb.Len() != 64 || cb.Src() != 64 {
		t.Fatalf("Len=%d Src=%d want 64", cb.Len(), cb.Src())
	}
	prices := cb.FloatCol(1)
	symbols := cb.StringCol(0)
	for i := range b {
		if prices[i] != b[i].Value(1).AsFloat() {
			t.Fatalf("row %d: float col %v != row value %v", i, prices[i], b[i].Value(1).AsFloat())
		}
		if symbols[i] != b[i].Value(0).AsString() {
			t.Fatalf("row %d: string col %q != row value %q", i, symbols[i], b[i].Value(0).AsString())
		}
	}
	// Out-of-range field reads the zero Value, exactly like Tuple.Value.
	zeros := cb.FloatCol(9)
	for i := range zeros {
		if zeros[i] != 0 {
			t.Fatalf("out-of-range column row %d = %v, want 0", i, zeros[i])
		}
	}
	if got := cb.Gather(nil); len(got) != len(b) || got[5].Seq != 5 {
		t.Fatalf("Gather = %d rows, row 5 Seq %d; want the source batch in order", len(got), got[5].Seq)
	}
}

// TestVecFilterMatchesEngineSemantics checks the vectorized filter
// agrees row-for-row with the engine's interpreted predicate, including
// the NaN edge: range checks reject on v < lo || v > hi, so NaN PASSES
// (both comparisons false) — unlike interest matching.
func TestVecFilterMatchesEngineSemantics(t *testing.T) {
	b := colTestBatch(32)
	b = append(b, NewTuple("quotes", 100, time.Unix(0, 0),
		String("ibm"), Float(math.NaN()), Int(1)))
	lo, hi := 20.0, 60.0
	keys := map[string]bool{"ibm": true, "goog": true}
	interp := func(tu Tuple) bool {
		v := tu.Value(1).AsFloat()
		if v < lo || v > hi {
			return false
		}
		return keys[tu.Value(0).AsString()]
	}
	cb := NewColBatch()
	cb.Reset(b)
	vf := NewVecFilter(1, lo, hi, 0, []string{"ibm", "goog"})
	vf.Apply(cb)
	var want []uint64
	for _, tu := range b {
		if interp(tu) {
			want = append(want, tu.Seq)
		}
	}
	var got []uint64
	for _, tu := range cb.Gather(nil) {
		got = append(got, tu.Seq)
	}
	if len(want) == 0 || len(want) == len(b) {
		t.Fatalf("degenerate selectivity %d/%d", len(want), len(b))
	}
	if len(got) != len(want) {
		t.Fatalf("vec filter kept %d rows, interpreted kept %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivor %d: vec %d, interpreted %d", i, got[i], want[i])
		}
	}
	nanKept := false
	for _, s := range got {
		if s == 100 {
			nanKept = true
		}
	}
	if !nanKept {
		t.Fatal("NaN row rejected by range kernel; engine filter semantics keep it")
	}
}

func TestVecFilterSingleKeyFastPath(t *testing.T) {
	b := colTestBatch(40)
	cb := NewColBatch()
	cb.Reset(b)
	vf := NewVecFilter(-1, 0, 0, 0, []string{"msft"})
	n := vf.Apply(cb)
	if n != 10 {
		t.Fatalf("single-key filter kept %d of 40, want 10", n)
	}
	for _, tu := range cb.Gather(nil) {
		if tu.Value(0).AsString() != "msft" {
			t.Fatalf("row %d survived a msft-only filter", tu.Seq)
		}
	}
}

// Satellite guard: the vectorized filter kernel allocates nothing per
// batch in steady state — column buffers and the selection vector are
// reused across Reset calls.
func TestVecFilterKernelAllocFree(t *testing.T) {
	b := colTestBatch(256)
	cb := NewColBatch()
	vf := NewVecFilter(1, 10, 70, 0, []string{"ibm", "goog", "amzn"})
	// Warm the buffers to steady state.
	cb.Reset(b)
	vf.Apply(cb)
	allocs := testing.AllocsPerRun(1000, func() {
		cb.Reset(b)
		if vf.Apply(cb) == 0 {
			t.Fatal("filter eliminated everything")
		}
	})
	if allocs != 0 {
		t.Fatalf("vec filter kernel allocates %.1f/batch; want 0", allocs)
	}
}
