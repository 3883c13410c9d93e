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
	for i := range b {
		if prices[i] != b[i].Value(1).AsFloat() {
			t.Fatalf("row %d: float col %v != row value %v", i, prices[i], b[i].Value(1).AsFloat())
		}
	}
	// Before any binding every string reads noKey; once ibm and goog are
	// bound, their rows read their two ids and the rest still noKey.
	for i, id := range cb.KeyCol(0) {
		if id != noKey {
			t.Fatalf("row %d: key id %d with an empty dictionary, want noKey", i, id)
		}
	}
	c := colFilter(t, NewInterest("quotes").WithKeys("symbol", "ibm", "goog"))
	c.Apply(cb, new(KeyBits))
	ids := map[string]int32{}
	for i, id := range cb.KeyCol(0) {
		sym := b[i].Value(0).AsString()
		listed := sym == "ibm" || sym == "goog"
		if listed != (id != noKey) {
			t.Fatalf("row %d (%s): key id %d after binding ibm and goog", i, sym, id)
		}
		if prev, seen := ids[sym]; seen && prev != id {
			t.Fatalf("row %d: %s reads id %d, an earlier row %d", i, sym, id, prev)
		}
		ids[sym] = id
	}
	if ids["ibm"] == ids["goog"] {
		t.Fatalf("ibm and goog share id %d", ids["ibm"])
	}
	cb.ResetSel()
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

// colFilter compiles a range on price and a key set on symbol the way a
// filter step is: as one interest over the batch's schema.
func colFilter(t *testing.T, in Interest) CompiledInterest {
	t.Helper()
	sc := MustSchema("quotes",
		Field{Name: "symbol", Type: KindString},
		Field{Name: "price", Type: KindFloat},
		Field{Name: "seq", Type: KindInt})
	c := CompileInterest(in, sc)
	if c.Dead() {
		t.Fatalf("%v compiled dead", in)
	}
	return c
}

// TestColumnEvaluatorMatchesRowSemantics checks the column evaluator
// agrees row-for-row with a hand-written predicate, including the NaN
// edge. This test used to pin "NaN PASSES": the engine's two evaluators
// rejected on v < lo || v > hi, which NaN slips through, while the
// relay's two rejected unless v >= lo && v <= hi — so a relay dropped a
// NaN row its own query accepted. There is one rule now, the contract
// on CompiledInterest: NaN is in no range.
func TestColumnEvaluatorMatchesRowSemantics(t *testing.T) {
	b := colTestBatch(32)
	b = append(b, NewTuple("quotes", 100, time.Unix(0, 0),
		String("ibm"), Float(math.NaN()), Int(1)))
	lo, hi := 20.0, 60.0
	keys := map[string]bool{"ibm": true, "goog": true}
	interp := func(tu Tuple) bool {
		v := tu.Value(1).AsFloat()
		if !(v >= lo && v <= hi) {
			return false
		}
		return keys[tu.Value(0).AsString()]
	}
	cb := NewColBatch()
	cb.Reset(b)
	c := colFilter(t, NewInterest("quotes").WithRange("price", lo, hi).WithKeys("symbol", "ibm", "goog"))
	c.Apply(cb, new(KeyBits))
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
		t.Fatalf("column evaluator kept %d rows, interpreted kept %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivor %d: column %d, interpreted %d", i, got[i], want[i])
		}
	}
	for _, s := range got {
		if s == 100 {
			t.Fatal("NaN row kept by the range scan; NaN is in no range")
		}
	}
}

// TestColumnEvaluatorSingleKeyFastPath: a one-key set compiles to a
// direct compare for the row evaluator, and the column evaluator tests
// the same one bit for it as for any set.
func TestColumnEvaluatorSingleKeyFastPath(t *testing.T) {
	b := colTestBatch(40)
	cb := NewColBatch()
	cb.Reset(b)
	c := colFilter(t, NewInterest("quotes").WithKeys("symbol", "msft"))
	if c.keys[0].set != nil {
		t.Fatal("a one-key set compiled to a map probe")
	}
	n := c.Apply(cb, new(KeyBits))
	if n != 10 {
		t.Fatalf("single-key filter kept %d of 40, want 10", n)
	}
	for _, tu := range cb.Gather(nil) {
		if tu.Value(0).AsString() != "msft" {
			t.Fatalf("row %d survived a msft-only filter", tu.Seq)
		}
	}
}

// Satellite guard: the column evaluator allocates nothing per batch in
// steady state — column buffers, the selection vector and the key
// binding are reused across Reset calls.
func TestColumnEvaluatorAllocFree(t *testing.T) {
	b := colTestBatch(256)
	cb := NewColBatch()
	c := colFilter(t, NewInterest("quotes").WithRange("price", 10, 70).WithKeys("symbol", "ibm", "goog", "amzn"))
	var kb KeyBits
	// Warm the buffers to steady state.
	cb.Reset(b)
	c.Apply(cb, &kb)
	allocs := testing.AllocsPerRun(1000, func() {
		cb.Reset(b)
		if c.Apply(cb, &kb) == 0 {
			t.Fatal("filter eliminated everything")
		}
	})
	if allocs != 0 {
		t.Fatalf("column evaluator allocates %.1f/batch; want 0", allocs)
	}
}

// Src returns the number of rows in the underlying source batch.
func (cb *ColBatch) Src() int { return len(cb.src) }
