package operator

import (
	"math"
	"testing"
	"testing/quick"

	"sspd/internal/stream"
)

func newAgg(t *testing.T, fn AggFunc, group string, spec stream.WindowSpec) *Aggregate {
	t.Helper()
	a, err := NewAggregate("agg", quotesSchema(t), fn, "price", group, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func aggValue(t *testing.T, outs []stream.Tuple) (string, float64) {
	t.Helper()
	if len(outs) != 1 {
		t.Fatalf("aggregate emitted %d outputs, want 1", len(outs))
	}
	return outs[0].Values[0].AsString(), outs[0].Values[1].AsFloat()
}

func TestAggregateSum(t *testing.T) {
	a := newAgg(t, AggSum, "", stream.CountWindow(3))
	a.Process(0, quote(1, "x", 10, 1))
	a.Process(0, quote(2, "x", 20, 1))
	_, v := aggValue(t, a.Process(0, quote(3, "x", 30, 1)))
	if v != 60 {
		t.Fatalf("sum = %v, want 60", v)
	}
	// Window slides: 10 evicted.
	_, v = aggValue(t, a.Process(0, quote(4, "x", 40, 1)))
	if v != 90 {
		t.Fatalf("sliding sum = %v, want 90", v)
	}
}

func TestAggregateCountAvg(t *testing.T) {
	c := newAgg(t, AggCount, "", stream.CountWindow(10))
	_, v := aggValue(t, c.Process(0, quote(1, "x", 5, 1)))
	if v != 1 {
		t.Fatalf("count = %v", v)
	}
	_, v = aggValue(t, c.Process(0, quote(2, "x", 5, 1)))
	if v != 2 {
		t.Fatalf("count = %v", v)
	}

	avg := newAgg(t, AggAvg, "", stream.CountWindow(10))
	avg.Process(0, quote(1, "x", 10, 1))
	_, v = aggValue(t, avg.Process(0, quote(2, "x", 20, 1)))
	if v != 15 {
		t.Fatalf("avg = %v, want 15", v)
	}
}

func TestAggregateMinMaxScan(t *testing.T) {
	mn := newAgg(t, AggMin, "", stream.CountWindow(2))
	mn.Process(0, quote(1, "x", 10, 1))
	_, v := aggValue(t, mn.Process(0, quote(2, "x", 5, 1)))
	if v != 5 {
		t.Fatalf("min = %v, want 5", v)
	}
	// 10 evicted; min recomputed over window = {5, 7}.
	_, v = aggValue(t, mn.Process(0, quote(3, "x", 7, 1)))
	if v != 5 {
		t.Fatalf("min after evict = %v, want 5", v)
	}
	mx := newAgg(t, AggMax, "", stream.CountWindow(2))
	mx.Process(0, quote(1, "x", 10, 1))
	mx.Process(0, quote(2, "x", 5, 1))
	// 10 evicted; max over {5, 3} = 5.
	_, v = aggValue(t, mx.Process(0, quote(3, "x", 3, 1)))
	if v != 5 {
		t.Fatalf("max after evict = %v, want 5", v)
	}
}

func TestAggregateGrouped(t *testing.T) {
	a := newAgg(t, AggSum, "symbol", stream.CountWindow(10))
	a.Process(0, quote(1, "ibm", 10, 1))
	a.Process(0, quote(2, "msft", 100, 1))
	g, v := aggValue(t, a.Process(0, quote(3, "ibm", 20, 1)))
	if g != "ibm" || v != 30 {
		t.Fatalf("grouped sum = %q/%v, want ibm/30", g, v)
	}
	if a.Groups() != 2 {
		t.Errorf("groups = %d, want 2", a.Groups())
	}
	// Group state is deleted when its last tuple leaves the window.
	small := newAgg(t, AggSum, "symbol", stream.CountWindow(1))
	small.Process(0, quote(1, "ibm", 10, 1))
	small.Process(0, quote(2, "msft", 5, 1))
	if small.Groups() != 1 {
		t.Errorf("groups after eviction = %d, want 1", small.Groups())
	}
	if small.WindowLen() != 1 {
		t.Errorf("window len = %d", small.WindowLen())
	}
}

func TestAggregateErrors(t *testing.T) {
	s := quotesSchema(t)
	if _, err := NewAggregate("a", nil, AggSum, "price", "", stream.CountWindow(1), 1); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewAggregate("a", s, AggSum, "missing", "", stream.CountWindow(1), 1); err == nil {
		t.Error("missing value field accepted")
	}
	if _, err := NewAggregate("a", s, AggSum, "symbol", "", stream.CountWindow(1), 1); err == nil {
		t.Error("string value field accepted")
	}
	if _, err := NewAggregate("a", s, AggSum, "price", "missing", stream.CountWindow(1), 1); err == nil {
		t.Error("missing group field accepted")
	}
	// Count ignores the value field entirely.
	if _, err := NewAggregate("a", s, AggCount, "", "", stream.CountWindow(1), 1); err != nil {
		t.Errorf("count with empty value field rejected: %v", err)
	}
}

func TestAggregateBadPortPanics(t *testing.T) {
	a := newAgg(t, AggSum, "", stream.CountWindow(1))
	defer func() {
		if recover() == nil {
			t.Fatal("bad port did not panic")
		}
	}()
	a.Process(1, quote(1, "x", 1, 1))
}

func TestAggFuncString(t *testing.T) {
	names := map[AggFunc]string{
		AggCount: "count", AggSum: "sum", AggAvg: "avg",
		AggMin: "min", AggMax: "max", AggFunc(99): "unknown",
	}
	for fn, want := range names {
		if got := fn.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", fn, got, want)
		}
	}
}

// Property: windowed sum always equals the sum of the last N inputs.
func TestAggregateSumWindowProperty(t *testing.T) {
	f := func(prices []uint8, winSize uint8) bool {
		n := int(winSize%8) + 1
		a, err := NewAggregate("agg", quotesSchema(t), AggSum, "price", "",
			stream.CountWindow(n), 1)
		if err != nil {
			return false
		}
		var last []float64
		var got float64
		for i, p := range prices {
			out := a.Process(0, quote(uint64(i), "x", float64(p), 1))
			last = append(last, float64(p))
			if len(last) > n {
				last = last[1:]
			}
			got = out[0].Values[1].AsFloat()
		}
		if len(prices) == 0 {
			return true
		}
		want := 0.0
		for _, v := range last {
			want += v
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: grouped count per group equals occurrences within the window.
func TestAggregateGroupedCountProperty(t *testing.T) {
	syms := []string{"a", "b"}
	f := func(picks []uint8) bool {
		a, err := NewAggregate("agg", quotesSchema(t), AggCount, "", "symbol",
			stream.CountWindow(5), 1)
		if err != nil {
			return false
		}
		var window []string
		for i, p := range picks {
			sym := syms[int(p)%2]
			out := a.Process(0, quote(uint64(i), sym, 1, 1))
			window = append(window, sym)
			if len(window) > 5 {
				window = window[1:]
			}
			want := 0
			for _, s := range window {
				if s == sym {
					want++
				}
			}
			if out[0].Values[1].AsFloat() != float64(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// WindowLen reports the number of tuples in the aggregate's window.
func (a *Aggregate) WindowLen() int { return a.win.Len() }

// Groups reports the number of active groups.
func (a *Aggregate) Groups() int { return len(a.groups) }
