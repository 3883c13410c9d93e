package operator

import (
	"math"
	"slices"
	"testing"
	"time"

	"sspd/internal/stream"
)

func quotesSchema(t testing.TB) *stream.Schema {
	t.Helper()
	return stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
		stream.Field{Name: "volume", Type: stream.KindInt, Lo: 0, Hi: 1e6},
	)
}

func quote(seq uint64, symbol string, price float64, volume int64) stream.Tuple {
	return stream.NewTuple("quotes", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Float(price), stream.Int(volume))
}

// priceAbove is the interest "price >= lo" in quotes.
func priceAbove(lo float64) stream.Interest {
	return stream.NewInterest("quotes").WithRange("price", lo, math.Inf(1))
}

func TestFilterBasics(t *testing.T) {
	s := quotesSchema(t)
	f, err := NewFilter("f", s, priceAbove(50), 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "f" || f.Cost() != 2 || f.OutSchema() != s {
		t.Errorf("accessor mismatch: %s/%v", f.Name(), f.Cost())
	}
	out := f.Process(0, quote(1, "ibm", 90, 1))
	if len(out) != 1 {
		t.Fatalf("passing tuple produced %d outputs", len(out))
	}
	if out := f.Process(0, quote(2, "ibm", 10, 1)); out != nil {
		t.Fatalf("failing tuple produced %v", out)
	}
	if f.Stats().In() != 2 || f.Stats().Out() != 1 {
		t.Errorf("stats in/out = %d/%d", f.Stats().In(), f.Stats().Out())
	}
	if got := f.Stats().CumulativeSelectivity(); got != 0.5 {
		t.Errorf("cumulative selectivity = %v", got)
	}
}

func TestFilterErrors(t *testing.T) {
	s := quotesSchema(t)
	if _, err := NewFilter("f", s, stream.NewInterest("quotes").WithRange("nope", 0, 1), 1); err == nil {
		t.Error("constraint on a field the schema lacks accepted")
	}
	if _, err := NewFilter("f", nil, priceAbove(0), 1); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestFilterBadPortPanics(t *testing.T) {
	s := quotesSchema(t)
	f, _ := NewFilter("f", s, stream.NewInterest("quotes"), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("bad port did not panic")
		}
	}()
	f.Process(1, quote(1, "a", 1, 1))
}

// TestInterestFilter: a filter's predicate is a data interest's value
// constraints — the stream name is not checked, a filter after a join
// sees the join's tuples — and the row entry and the batch entry pass
// the same tuples and feed the same Stats.
func TestInterestFilter(t *testing.T) {
	s := quotesSchema(t)
	in := stream.NewInterest("quotes").WithRange("price", 0, 50).WithKeys("symbol", "a", "b")
	mk := func() *Filter {
		f, err := NewFilter("f", s, in, 1)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	rows, cols := mk(), mk()
	var b stream.Batch
	for i := uint64(0); i < 64; i++ {
		tu := quote(i, string(rune('a'+i%3)), float64(i%8)*10, 1)
		if i%5 == 0 {
			tu.Stream = "joined"
		}
		if i%7 == 0 {
			tu.Values[1] = stream.Float(math.NaN())
		}
		b = append(b, tu)
	}
	var want []uint64
	for _, tu := range b {
		if out := rows.Process(0, tu); len(out) == 1 {
			want = append(want, out[0].Seq)
		}
	}
	cb := stream.NewColBatch()
	cb.Reset(b)
	n := cols.ProcessBatch(cb)
	var got []uint64
	for _, tu := range cb.Gather(nil) {
		got = append(got, tu.Seq)
	}
	if len(want) == 0 || len(want) == len(b) || n != len(want) || !slices.Equal(got, want) {
		t.Fatalf("batch entry passed %d rows %v, row entry %v", n, got, want)
	}
	if rows.Stats().In() != cols.Stats().In() || rows.Stats().Out() != cols.Stats().Out() {
		t.Errorf("stats in/out: rows %d/%d, batch %d/%d",
			rows.Stats().In(), rows.Stats().Out(), cols.Stats().In(), cols.Stats().Out())
	}
}

func TestStatsDefaults(t *testing.T) {
	st := newStats()
	if st.Selectivity() != 1 {
		t.Errorf("prior selectivity = %v, want 1", st.Selectivity())
	}
	if st.CumulativeSelectivity() != 1 {
		t.Errorf("prior cumulative = %v, want 1", st.CumulativeSelectivity())
	}
}

func TestStatsEWMATracksShift(t *testing.T) {
	st := newStats()
	for i := 0; i < 200; i++ {
		st.record(1)
	}
	if got := st.Selectivity(); math.Abs(got-1) > 0.01 {
		t.Fatalf("selectivity after all-pass = %v", got)
	}
	for i := 0; i < 200; i++ {
		st.record(0)
	}
	if got := st.Selectivity(); got > 0.01 {
		t.Fatalf("selectivity after shift = %v, want ~0", got)
	}
}

func TestDefaultCost(t *testing.T) {
	s := quotesSchema(t)
	f, _ := NewFilter("f", s, stream.NewInterest("quotes"), -5)
	if f.Cost() != 1 {
		t.Errorf("defaulted cost = %v, want 1", f.Cost())
	}
}

// Out returns the number of tuples produced.
func (s *Stats) Out() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out
}

// CumulativeSelectivity returns total out/in, or 1 before any input.
func (s *Stats) CumulativeSelectivity() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.in == 0 {
		return 1
	}
	return float64(s.out) / float64(s.in)
}
