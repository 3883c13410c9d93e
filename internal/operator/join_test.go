package operator

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"sspd/internal/stream"
)

func tradesSchema(t testing.TB) *stream.Schema {
	t.Helper()
	return stream.MustSchema("trades",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "qty", Type: stream.KindInt, Lo: 0, Hi: 1e6},
	)
}

func trade(seq uint64, symbol string, qty int64) stream.Tuple {
	return stream.NewTuple("trades", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Int(qty))
}

func newTestJoin(t *testing.T, spec stream.WindowSpec) *WindowJoin {
	t.Helper()
	j, err := NewWindowJoin("j", quotesSchema(t), tradesSchema(t), "symbol", "symbol", spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestWindowJoinMatches(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(10))
	if out := j.Process(0, quote(1, "ibm", 90, 1)); out != nil {
		t.Fatalf("join with empty other side emitted %v", out)
	}
	out := j.Process(1, trade(2, "ibm", 500))
	if len(out) != 1 {
		t.Fatalf("matching trade emitted %d outputs", len(out))
	}
	got := out[0]
	// Concatenated left (quote: symbol, price, volume) then right
	// (trade: symbol, qty).
	if len(got.Values) != 5 {
		t.Fatalf("joined arity = %d, want 5", len(got.Values))
	}
	if got.Values[0].AsString() != "ibm" || got.Values[1].AsFloat() != 90 ||
		got.Values[3].AsString() != "ibm" || got.Values[4].AsInt() != 500 {
		t.Fatalf("joined tuple = %v", got)
	}
	if got.Stream != "j" {
		t.Errorf("output stream = %q", got.Stream)
	}
	// Timestamp is the max of the two sides.
	if !got.Ts.Equal(time.Unix(2, 0).UTC()) {
		t.Errorf("output ts = %v", got.Ts)
	}
	if out := j.Process(1, trade(3, "goog", 1)); out != nil {
		t.Fatalf("non-matching trade emitted %v", out)
	}
}

func TestWindowJoinMultipleMatches(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(10))
	j.Process(0, quote(1, "ibm", 90, 1))
	j.Process(0, quote(2, "ibm", 91, 1))
	out := j.Process(1, trade(3, "ibm", 5))
	if len(out) != 2 {
		t.Fatalf("trade matching 2 quotes emitted %d", len(out))
	}
}

func TestWindowJoinEviction(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(2))
	j.Process(0, quote(1, "ibm", 1, 1))
	j.Process(0, quote(2, "ibm", 2, 1))
	j.Process(0, quote(3, "msft", 3, 1)) // evicts quote 1
	out := j.Process(1, trade(4, "ibm", 5))
	if len(out) != 1 {
		t.Fatalf("after eviction, matches = %d, want 1", len(out))
	}
	if out[0].Values[1].AsFloat() != 2 {
		t.Fatalf("stale quote joined: %v", out[0])
	}
	if j.WindowLen(0) != 2 {
		t.Errorf("left window len = %d", j.WindowLen(0))
	}
	// All ibm evicted -> no match.
	j.Process(0, quote(5, "goog", 4, 1)) // evicts quote 2 (last ibm)
	if out := j.Process(1, trade(6, "ibm", 5)); out != nil {
		t.Fatalf("evicted key still matched: %v", out)
	}
}

func TestWindowJoinTimeWindow(t *testing.T) {
	j := newTestJoin(t, stream.TimeWindow(5*time.Second))
	j.Process(0, quote(1, "ibm", 1, 1))      // t=1
	j.Process(0, quote(10, "ibm", 2, 1))     // t=10, evicts t=1
	out := j.Process(1, trade(11, "ibm", 5)) // t=11
	if len(out) != 1 {
		t.Fatalf("time-window matches = %d, want 1", len(out))
	}
}

func TestWindowJoinErrors(t *testing.T) {
	q, tr := quotesSchema(t), tradesSchema(t)
	if _, err := NewWindowJoin("j", nil, tr, "symbol", "symbol", stream.CountWindow(1), 1); err == nil {
		t.Error("nil left accepted")
	}
	if _, err := NewWindowJoin("j", q, tr, "nope", "symbol", stream.CountWindow(1), 1); err == nil {
		t.Error("missing left key accepted")
	}
	if _, err := NewWindowJoin("j", q, tr, "symbol", "nope", stream.CountWindow(1), 1); err == nil {
		t.Error("missing right key accepted")
	}
	if _, err := NewWindowJoin("j", q, tr, "price", "symbol", stream.CountWindow(1), 1); err == nil {
		t.Error("mismatched key kinds accepted")
	}
}

func TestWindowJoinOutSchema(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(1))
	out := j.OutSchema()
	if out.NumFields() != 5 {
		t.Fatalf("out fields = %d", out.NumFields())
	}
	if _, ok := out.FieldIndex("l_price"); !ok {
		t.Error("missing l_price")
	}
	if _, ok := out.FieldIndex("r_qty"); !ok {
		t.Error("missing r_qty")
	}
}

func TestWindowJoinBadPortPanics(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(1))
	defer func() {
		if recover() == nil {
			t.Fatal("bad port did not panic")
		}
	}()
	j.Process(2, quote(1, "a", 1, 1))
}

func TestWindowJoinStateSize(t *testing.T) {
	j := newTestJoin(t, stream.CountWindow(10))
	if j.StateSize() != 0 {
		t.Error("fresh join has state")
	}
	q := quote(1, "ibm", 1, 1)
	j.Process(0, q)
	if got := j.StateSize(); got != q.Size() {
		t.Errorf("state = %d, want %d", got, q.Size())
	}
	if j.WindowLen(5) != 0 {
		t.Error("bad port WindowLen should be 0")
	}
}

// Property: the join's index and window always agree — joining after any
// mix of inserts yields exactly the number of same-key tuples currently
// in the opposite window.
func TestWindowJoinIndexConsistencyProperty(t *testing.T) {
	syms := []string{"a", "b", "c"}
	f := func(ops []uint8) bool {
		j, err := NewWindowJoin("j", quotesSchema(t), tradesSchema(t),
			"symbol", "symbol", stream.CountWindow(4), 1)
		if err != nil {
			return false
		}
		// Replay inserts on the left; count per-symbol live quotes.
		var live []string
		for i, op := range ops {
			sym := syms[int(op)%len(syms)]
			j.Process(0, quote(uint64(i), sym, 1, 1))
			live = append(live, sym)
			if len(live) > 4 {
				live = live[1:]
			}
		}
		// Probe with each symbol and verify match counts.
		for _, sym := range syms {
			want := 0
			for _, s := range live {
				if s == sym {
					want++
				}
			}
			out := j.Process(1, trade(1000, sym, 1))
			if len(out) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWindowJoinProbe(b *testing.B) {
	j, err := NewWindowJoin("j", stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
		stream.Field{Name: "volume", Type: stream.KindInt},
	), stream.MustSchema("trades",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "qty", Type: stream.KindInt},
	), "symbol", "symbol", stream.CountWindow(256), 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		j.Process(0, quote(uint64(i), fmt.Sprintf("S%02d", i%100), 1, 1))
	}
	probe := trade(999, "S50", 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Process(1, probe)
	}
}

// WindowLen reports the current size of one side's window (0 = left).
func (j *WindowJoin) WindowLen(port int) int {
	if port < 0 || port > 1 {
		return 0
	}
	return j.sides[port].win.Len()
}
