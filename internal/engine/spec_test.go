package engine

import (
	"math"
	"testing"
	"time"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

func testCatalog(t testing.TB) *stream.Catalog {
	t.Helper()
	c := stream.NewCatalog()
	quotes := stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
		stream.Field{Name: "volume", Type: stream.KindInt, Lo: 0, Hi: 1e6},
	)
	trades := stream.MustSchema("trades",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "qty", Type: stream.KindInt, Lo: 0, Hi: 1e6},
	)
	if err := c.Register(quotes); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(trades); err != nil {
		t.Fatal(err)
	}
	return c
}

func quote(seq uint64, symbol string, price float64, volume int64) stream.Tuple {
	return stream.NewTuple("quotes", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Float(price), stream.Int(volume))
}

func trade(seq uint64, symbol string, qty int64) stream.Tuple {
	return stream.NewTuple("trades", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Int(qty))
}

func TestQuerySpecValidate(t *testing.T) {
	good := QuerySpec{
		ID:     "q1",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 100},
			{KeyField: "symbol", Keys: []string{"ibm"}},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []QuerySpec{
		{Source: "quotes"},
		{ID: "q"},
		{ID: "q", Source: "s", Join: &JoinSpec{}},
		{ID: "q", Source: "s", Filters: []FilterSpec{{}}},
		{ID: "q", Source: "s", Filters: []FilterSpec{{Field: "p", Lo: 2, Hi: 1}}},
		{ID: "q", Source: "s", Filters: []FilterSpec{{KeyField: "k"}}},
		{ID: "q", Source: "s", Agg: &AggSpec{Fn: operator.AggSum}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	// Count aggregates need no value field.
	count := QuerySpec{ID: "q", Source: "s", Agg: &AggSpec{Fn: operator.AggCount}}
	if err := count.Validate(); err != nil {
		t.Errorf("count agg rejected: %v", err)
	}
}

func TestQuerySpecStreams(t *testing.T) {
	q := QuerySpec{ID: "q", Source: "a"}
	if got := q.Streams(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Streams = %v", got)
	}
	q.Join = &JoinSpec{Stream: "b", LeftKey: "k", RightKey: "k"}
	if got := q.Streams(); len(got) != 2 || got[1] != "b" {
		t.Errorf("Streams = %v", got)
	}
}

func TestQuerySpecInterest(t *testing.T) {
	c := testCatalog(t)
	sc, _ := c.Lookup("quotes")
	q := QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 10, Hi: 20},
			{KeyField: "symbol", Keys: []string{"ibm"}},
			{Field: "not_in_schema", Lo: 0, Hi: 1}, // ignored for interest
		},
	}
	in := q.Interest("quotes", sc)
	if !in.Matches(sc, quote(1, "ibm", 15, 1)) {
		t.Error("interest rejects matching tuple")
	}
	if in.Matches(sc, quote(2, "ibm", 25, 1)) {
		t.Error("interest accepts out-of-range tuple")
	}
	if in.Matches(sc, quote(3, "goog", 15, 1)) {
		t.Error("interest accepts wrong symbol")
	}
}

// TestQuerySpecInterestBehindJoin: a join query's interest leaves both
// inputs unconstrained, whatever its filters name — they run after the
// join, whose window admits every row of either input — while the same
// filters without the join narrow the source.
func TestQuerySpecInterestBehindJoin(t *testing.T) {
	c := testCatalog(t)
	quotes, _ := c.Lookup("quotes")
	trades, _ := c.Lookup("trades")
	filters := []FilterSpec{
		{Field: "price", Lo: 0, Hi: 10},             // l_price
		{KeyField: "symbol", Keys: []string{"ibm"}}, // l_symbol, though trades has one
		{Field: "l_volume", Lo: 0, Hi: 5},           // l_volume
		{Field: "r_qty", Lo: 1, Hi: 2},              // r_qty
	}
	q := QuerySpec{ID: "q", Source: "quotes", Filters: filters,
		Join: &JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol"}}
	if _, err := Compile(q, c, nil); err != nil {
		t.Fatal(err)
	}
	for name, sc := range map[string]*stream.Schema{"quotes": quotes, "trades": trades} {
		if in := q.Interest(name, sc); in.Stream != name || !in.Unconstrained() {
			t.Errorf("Interest(%s) = %v, want all of %s", name, in, name)
		}
	}
	self := QuerySpec{ID: "s", Source: "quotes", Filters: filters[:1],
		Join: &JoinSpec{Stream: "quotes", LeftKey: "symbol", RightKey: "symbol"}}
	if in := self.Interest("quotes", quotes); !in.Unconstrained() {
		t.Errorf("self-join Interest = %v, want unconstrained", in)
	}
	plain := QuerySpec{ID: "p", Source: "quotes", Filters: filters[:2]}
	if in := plain.Interest("quotes", quotes); in.Ranges["price"] != (stream.Range{Lo: 0, Hi: 10}) || !in.Keys["symbol"]["ibm"] {
		t.Errorf("Interest without the join = %v, want price and symbol", in)
	}
}

func TestQuerySpecEstimatedLoad(t *testing.T) {
	q := QuerySpec{ID: "q", Source: "s", Load: 42}
	if got := q.EstimatedLoad(); got != 42 {
		t.Errorf("declared load = %v", got)
	}
	derived := QuerySpec{
		ID: "q", Source: "s",
		Join:    &JoinSpec{Stream: "b", LeftKey: "k", RightKey: "k"}, // default 3
		Filters: []FilterSpec{{Field: "f", Lo: 0, Hi: 1, Cost: 2}},   // 2
		Agg:     &AggSpec{Fn: operator.AggCount},                     // default 2
	}
	if got := derived.EstimatedLoad(); got != 7 {
		t.Errorf("derived load = %v, want 7", got)
	}
	if got := (QuerySpec{ID: "q", Source: "s"}).EstimatedLoad(); got != 1 {
		t.Errorf("minimum load = %v, want 1", got)
	}
}

func TestFilterSpecInterest(t *testing.T) {
	sc, _ := testCatalog(t).Lookup("quotes")
	f := FilterSpec{Field: "price", Lo: 1, Hi: 2, KeyField: "symbol", Keys: []string{"a"}}
	in := f.Interest("st", sc)
	if in.Stream != "st" || in.Ranges["price"] != (stream.Range{Lo: 1, Hi: 2}) || !in.Keys["symbol"]["a"] {
		t.Errorf("interest = %v", in)
	}
	// A constraint on a field the schema lacks is left out: the step
	// then says nothing about this stream.
	f = FilterSpec{Field: "l_price", Lo: 1, Hi: 2, KeyField: "qty", Keys: []string{"a"}}
	if in := f.Interest("quotes", sc); !in.Unconstrained() {
		t.Errorf("interest over absent fields = %v, want unconstrained", in)
	}
}

// TestQuerySpecInterestIntersectsRepeatedFields: two steps on one field
// register their intersection, not the last one, and steps that exclude
// each other register an interest that matches nothing.
func TestQuerySpecInterestIntersectsRepeatedFields(t *testing.T) {
	sc, _ := testCatalog(t).Lookup("quotes")
	q := QuerySpec{ID: "q", Source: "quotes", Filters: []FilterSpec{
		{Field: "price", Lo: 0, Hi: 50},
		{KeyField: "symbol", Keys: []string{"a", "b"}},
		{Field: "price", Lo: 40, Hi: 100},
		{KeyField: "symbol", Keys: []string{"b", "c"}},
	}}
	in := q.Interest("quotes", sc)
	if got := in.Ranges["price"]; got != (stream.Range{Lo: 40, Hi: 50}) {
		t.Errorf("price registered as %+v, want [40,50]", got)
	}
	if got := in.Keys["symbol"]; len(got) != 1 || !got["b"] {
		t.Errorf("symbol registered as %v, want {b}", got)
	}
	if !in.Matches(sc, quote(1, "b", 45, 1)) || in.Matches(sc, quote(2, "b", 60, 1)) || in.Matches(sc, quote(3, "c", 45, 1)) {
		t.Errorf("interest %v is not the query's conjunction", in)
	}
	q.Filters = append(q.Filters, FilterSpec{Field: "price", Lo: 60, Hi: 70})
	in = q.Interest("quotes", sc)
	if !in.Ranges["price"].Empty() || in.Selectivity(sc) != 0 {
		t.Errorf("exclusive steps registered %v, want an empty price range", in)
	}
	for _, price := range []float64{45, 65} {
		if in.Matches(sc, quote(4, "b", price, 1)) {
			t.Errorf("empty interest accepts price %v", price)
		}
	}
}

func TestDefaultWindow(t *testing.T) {
	w := defaultWindow(stream.WindowSpec{})
	if w.Kind != stream.WindowByTime || w.Duration != time.Minute {
		t.Errorf("zero spec default = %+v", w)
	}
	w = defaultWindow(stream.WindowSpec{Duration: 5 * time.Second})
	if w.Kind != stream.WindowByTime || w.Duration != 5*time.Second {
		t.Errorf("duration-only default = %+v", w)
	}
	keep := stream.CountWindow(7)
	if got := defaultWindow(keep); got != keep {
		t.Errorf("valid spec mutated: %+v", got)
	}
}

func TestCompileSimpleFilterQuery(t *testing.T) {
	c := testCatalog(t)
	var results []stream.Tuple
	q, err := Compile(QuerySpec{
		ID:     "q1",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 50, Hi: 150},
			{KeyField: "symbol", Keys: []string{"ibm", "msft"}},
		},
	}, c, func(b stream.Batch) { results = append(results, b...) })
	if err != nil {
		t.Fatal(err)
	}
	if n := q.Feed("quotes", quote(1, "ibm", 100, 5)); n != 1 {
		t.Fatalf("matching tuple produced %d results", n)
	}
	if n := q.Feed("quotes", quote(2, "ibm", 10, 5)); n != 0 {
		t.Fatalf("price-filtered tuple produced %d results", n)
	}
	if n := q.Feed("quotes", quote(3, "goog", 100, 5)); n != 0 {
		t.Fatalf("symbol-filtered tuple produced %d results", n)
	}
	if n := q.Feed("trades", trade(4, "ibm", 5)); n != 0 {
		t.Fatalf("unrelated stream produced %d results", n)
	}
	if len(results) != 1 {
		t.Fatalf("emitted %d results", len(results))
	}
	if q.ID() != "q1" {
		t.Errorf("ID = %q", q.ID())
	}
	if len(q.Operators()) != 2 {
		t.Errorf("operators = %d", len(q.Operators()))
	}
}

func TestCompileJoinQuery(t *testing.T) {
	c := testCatalog(t)
	count := 0
	q, err := Compile(QuerySpec{
		ID:     "qj",
		Source: "quotes",
		Join: &JoinSpec{
			Stream: "trades", LeftKey: "symbol", RightKey: "symbol",
			Window: stream.CountWindow(10),
		},
		Filters: []FilterSpec{{Field: "price", Lo: 0, Hi: 100}},
	}, c, func(b stream.Batch) { count += len(b) })
	if err != nil {
		t.Fatal(err)
	}
	q.Feed("quotes", quote(1, "ibm", 50, 1))
	if n := q.Feed("trades", trade(2, "ibm", 7)); n != 1 {
		t.Fatalf("join+filter results = %d, want 1", n)
	}
	// Filter references the un-prefixed source field "price", resolved
	// to l_price post-join.
	q.Feed("quotes", quote(3, "goog", 500, 1))
	if n := q.Feed("trades", trade(4, "goog", 7)); n != 0 {
		t.Fatalf("filtered join produced %d", n)
	}
	if count != 1 {
		t.Fatalf("emitted = %d", count)
	}
	// Tuples on neither input are ignored.
	other := stream.NewTuple("other", 1, time.Now())
	if n := q.Feed("other", other); n != 0 {
		t.Fatalf("unknown stream produced %d", n)
	}
}

func TestCompileAggQuery(t *testing.T) {
	c := testCatalog(t)
	var last float64
	q, err := Compile(QuerySpec{
		ID:     "qa",
		Source: "quotes",
		Filters: []FilterSpec{
			{KeyField: "symbol", Keys: []string{"ibm"}},
		},
		Agg: &AggSpec{
			Fn: operator.AggAvg, ValueField: "price",
			Window: stream.CountWindow(2),
		},
	}, c, func(b stream.Batch) { last = b[len(b)-1].Values[1].AsFloat() })
	if err != nil {
		t.Fatal(err)
	}
	q.Feed("quotes", quote(1, "ibm", 10, 1))
	q.Feed("quotes", quote(2, "goog", 999, 1)) // filtered before agg
	q.Feed("quotes", quote(3, "ibm", 20, 1))
	if math.Abs(last-15) > 1e-9 {
		t.Fatalf("avg = %v, want 15", last)
	}
}

func TestCompileErrors(t *testing.T) {
	c := testCatalog(t)
	cases := []QuerySpec{
		{ID: "", Source: "quotes"},
		{ID: "q", Source: "nope"},
		{ID: "q", Source: "quotes", Join: &JoinSpec{Stream: "nope", LeftKey: "symbol", RightKey: "symbol"}},
		{ID: "q", Source: "quotes", Join: &JoinSpec{Stream: "trades", LeftKey: "nope", RightKey: "symbol"}},
		{ID: "q", Source: "quotes", Filters: []FilterSpec{{Field: "nope", Lo: 0, Hi: 1}}},
		{ID: "q", Source: "quotes", Filters: []FilterSpec{{KeyField: "nope", Keys: []string{"x"}}}},
		{ID: "q", Source: "quotes", Join: &JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol"},
			Filters: []FilterSpec{{KeyField: "r_nope", Keys: []string{"x"}}}}, // a field neither input has
		{ID: "q", Source: "quotes", Agg: &AggSpec{Fn: operator.AggSum, ValueField: "nope"}},
	}
	for i, spec := range cases {
		if _, err := Compile(spec, c, nil); err == nil {
			t.Errorf("bad spec %d compiled", i)
		}
	}
}

func TestReorderFilters(t *testing.T) {
	c := testCatalog(t)
	q, err := Compile(QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 100, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 10, Cost: 5},
		},
		Agg: &AggSpec{Fn: operator.AggCount, Window: stream.CountWindow(4)},
	}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	costs := q.FilterCosts()
	if len(costs) != 2 || costs[0] != 1 || costs[1] != 5 {
		t.Fatalf("costs = %v", costs)
	}
	if err := q.ReorderFilters([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	costs = q.FilterCosts()
	if costs[0] != 5 || costs[1] != 1 {
		t.Fatalf("costs after reorder = %v", costs)
	}
	// Aggregate must stay terminal: feeding still works and counts.
	if n := q.Feed("quotes", quote(1, "ibm", 50, 5)); n != 1 {
		t.Fatalf("post-reorder feed = %d", n)
	}
	// Invalid permutations.
	if err := q.ReorderFilters([]int{0}); err == nil {
		t.Error("short permutation accepted")
	}
	if err := q.ReorderFilters([]int{0, 0}); err == nil {
		t.Error("duplicate permutation accepted")
	}
	if err := q.ReorderFilters([]int{0, 5}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
	if sels := q.FilterSelectivities(); len(sels) != 2 {
		t.Errorf("selectivities = %v", sels)
	}
}
