package operator

import (
	"fmt"
	"reflect"
	"testing"

	"sspd/internal/stream"
)

// feedAll drives n warmup quotes through an operator on port 0.
func feedAll(op Operator, from, n uint64) {
	for i := from; i < from+n; i++ {
		sym := fmt.Sprintf("s%d", i%7)
		op.Process(0, quote(i, sym, float64(10+i%90), int64(i)))
	}
}

// collectSuffix feeds the same suffix to an operator and flattens the
// outputs for comparison.
func collectSuffix(op Operator, from, n uint64) []stream.Tuple {
	var out []stream.Tuple
	for i := from; i < from+n; i++ {
		sym := fmt.Sprintf("s%d", i%7)
		out = append(out, op.Process(0, quote(i, sym, float64(10+i%90), int64(i)))...)
	}
	return out
}

// roundtrip snapshots src, restores into dst, then asserts both produce
// identical outputs for an identical input suffix — the migration
// equivalence contract.
func roundtrip(t *testing.T, src, dst Operator) {
	t.Helper()
	s, ok := src.(Stateful)
	if !ok {
		t.Fatalf("%T not Stateful", src)
	}
	d := dst.(Stateful)
	if s.StateBytes() <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", s.StateBytes())
	}
	if err := d.RestoreState(s.SnapshotState()); err != nil {
		t.Fatalf("restore: %v", err)
	}
	want := collectSuffix(src, 1000, 150)
	got := collectSuffix(dst, 1000, 150)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("post-restore outputs diverge:\nsrc: %d tuples\ndst: %d tuples", len(want), len(got))
	}
	in, out, sel, _ := src.Stats().ExportStats()
	din, dout, dsel, _ := dst.Stats().ExportStats()
	if in != din || out != dout || sel != dsel {
		t.Errorf("stats diverge after identical suffix: %d/%d/%v vs %d/%d/%v",
			in, out, sel, din, dout, dsel)
	}
}

func TestFilterStateRoundtrip(t *testing.T) {
	s := quotesSchema(t)
	mk := func() *Filter {
		f, err := NewFilter("f", s, priceAbove(40), 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	src, dst := mk(), mk()
	feedAll(src, 0, 200)
	roundtrip(t, src, dst)
}

func TestAggregateStateRoundtrip(t *testing.T) {
	s := quotesSchema(t)
	for _, fn := range []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		t.Run(fn.String(), func(t *testing.T) {
			mk := func() *Aggregate {
				a, err := NewAggregate("agg", s, fn, "price", "symbol", stream.CountWindow(64), 1)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			src, dst := mk(), mk()
			feedAll(src, 0, 300)
			roundtrip(t, src, dst)
			if src.WindowLen() != dst.WindowLen() || src.Groups() != dst.Groups() {
				t.Errorf("window/groups diverge: %d/%d vs %d/%d",
					src.WindowLen(), src.Groups(), dst.WindowLen(), dst.Groups())
			}
		})
	}
}

func TestJoinStateRoundtrip(t *testing.T) {
	qs := quotesSchema(t)
	mk := func() *WindowJoin {
		j, err := NewWindowJoin("j", qs, qs, "symbol", "symbol", stream.CountWindow(32), 1)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	src, dst := mk(), mk()
	// Exercise both ports so both side windows carry state.
	for i := uint64(0); i < 200; i++ {
		sym := fmt.Sprintf("s%d", i%5)
		src.Process(int(i%2), quote(i, sym, float64(i), 1))
	}
	d := dst
	if err := d.RestoreState(src.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	if src.WindowLen(0) != dst.WindowLen(0) || src.WindowLen(1) != dst.WindowLen(1) {
		t.Fatalf("window lengths diverge: %d/%d vs %d/%d",
			src.WindowLen(0), src.WindowLen(1), dst.WindowLen(0), dst.WindowLen(1))
	}
	for i := uint64(1000); i < 1100; i++ {
		sym := fmt.Sprintf("s%d", i%5)
		want := src.Process(int(i%2), quote(i, sym, float64(i), 1))
		got := dst.Process(int(i%2), quote(i, sym, float64(i), 1))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seq %d: outputs diverge (%d vs %d tuples)", i, len(want), len(got))
		}
	}
	if src.StateSize() != dst.StateSize() {
		t.Errorf("state sizes diverge: %d vs %d", src.StateSize(), dst.StateSize())
	}
}

func TestDistinctStateRoundtrip(t *testing.T) {
	s := quotesSchema(t)
	mk := func() *Distinct {
		d, err := NewDistinct("d", s, "symbol", stream.CountWindow(16), 1)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	src, dst := mk(), mk()
	feedAll(src, 0, 120)
	roundtrip(t, src, dst)
}

func TestTopKStateRoundtrip(t *testing.T) {
	s := quotesSchema(t)
	mk := func() *TopK {
		k, err := NewTopK("k", s, 3, "price", "symbol", stream.CountWindow(32), 1)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	src, dst := mk(), mk()
	feedAll(src, 0, 150)
	roundtrip(t, src, dst)
	if src.WindowLen() != dst.WindowLen() {
		t.Errorf("window lengths diverge: %d vs %d", src.WindowLen(), dst.WindowLen())
	}
}

func TestRestoreStateRejectsGarbage(t *testing.T) {
	s := quotesSchema(t)
	a, err := NewAggregate("agg", s, AggAvg, "price", "symbol", stream.CountWindow(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreState([]byte{1, 2, 3}); err == nil {
		t.Error("truncated state accepted")
	}
	feedAll(a, 0, 20)
	snap := a.SnapshotState()
	if err := a.RestoreState(snap[:len(snap)-2]); err == nil {
		t.Error("torn snapshot accepted")
	}
}
