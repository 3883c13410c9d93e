package sspdql

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sspd/internal/engine"
	"sspd/internal/operator"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func TestParseMinimal(t *testing.T) {
	spec, err := Parse("q1", "FROM quotes")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID != "q1" || spec.Source != "quotes" {
		t.Fatalf("spec = %+v", spec)
	}
	if spec.Join != nil || spec.Filters != nil || spec.Agg != nil {
		t.Fatal("extra clauses materialized")
	}
}

func TestParseFilters(t *testing.T) {
	spec, err := Parse("q", `FROM quotes WHERE price BETWEEN 10 AND 20
		AND symbol IN ('ibm', 'msft') AND volume <= 100 AND price >= 5
		AND symbol = 'goog'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Filters) != 5 {
		t.Fatalf("filters = %d", len(spec.Filters))
	}
	f := spec.Filters[0]
	if f.Field != "price" || f.Lo != 10 || f.Hi != 20 {
		t.Errorf("between = %+v", f)
	}
	f = spec.Filters[1]
	if f.KeyField != "symbol" || len(f.Keys) != 2 || f.Keys[0] != "ibm" {
		t.Errorf("in = %+v", f)
	}
	f = spec.Filters[2]
	if f.Field != "volume" || f.Lo != -OpenBound || f.Hi != 100 {
		t.Errorf("le = %+v", f)
	}
	f = spec.Filters[3]
	if f.Field != "price" || f.Lo != 5 || f.Hi != OpenBound {
		t.Errorf("ge = %+v", f)
	}
	f = spec.Filters[4]
	if f.KeyField != "symbol" || len(f.Keys) != 1 || f.Keys[0] != "goog" {
		t.Errorf("string eq = %+v", f)
	}
}

func TestParseStrictInequalities(t *testing.T) {
	spec, err := Parse("q", "FROM s WHERE a < 10 AND b > 5 AND c = 7")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Filters[0].Hi; got >= 10 {
		t.Errorf("a < 10 upper bound = %v", got)
	}
	if got := spec.Filters[1].Lo; got <= 5 {
		t.Errorf("b > 5 lower bound = %v", got)
	}
	if f := spec.Filters[2]; f.Lo != 7 || f.Hi != 7 {
		t.Errorf("c = 7 -> %+v", f)
	}
}

func TestParseJoin(t *testing.T) {
	spec, err := Parse("q", "FROM quotes JOIN trades ON symbol = symbol WINDOW 100 WHERE price <= 50")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Join == nil || spec.Join.Stream != "trades" ||
		spec.Join.LeftKey != "symbol" || spec.Join.RightKey != "symbol" {
		t.Fatalf("join = %+v", spec.Join)
	}
	if spec.Join.Window.Kind != stream.WindowByCount || spec.Join.Window.Count != 100 {
		t.Fatalf("window = %+v", spec.Join.Window)
	}
}

func TestParseAggregate(t *testing.T) {
	spec, err := Parse("q", "FROM quotes AGGREGATE avg(price) BY symbol WINDOW 60s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Agg == nil || spec.Agg.Fn != operator.AggAvg ||
		spec.Agg.ValueField != "price" || spec.Agg.GroupField != "symbol" {
		t.Fatalf("agg = %+v", spec.Agg)
	}
	if spec.Agg.Window.Kind != stream.WindowByTime || spec.Agg.Window.Duration != time.Minute {
		t.Fatalf("window = %+v", spec.Agg.Window)
	}
	count, err := Parse("q", "FROM quotes AGGREGATE count() WINDOW 10")
	if err != nil {
		t.Fatal(err)
	}
	if count.Agg.Fn != operator.AggCount || count.Agg.ValueField != "" {
		t.Fatalf("count = %+v", count.Agg)
	}
}

func TestParseWindowUnits(t *testing.T) {
	cases := map[string]stream.WindowSpec{
		"WINDOW 500ms": stream.TimeWindow(500 * time.Millisecond),
		"WINDOW 2m":    stream.TimeWindow(2 * time.Minute),
		"WINDOW 3s":    stream.TimeWindow(3 * time.Second),
		"WINDOW 42":    stream.CountWindow(42),
	}
	for frag, want := range cases {
		spec, err := Parse("q", "FROM s AGGREGATE count() "+frag)
		if err != nil {
			t.Fatalf("%s: %v", frag, err)
		}
		if spec.Agg.Window != want {
			t.Errorf("%s = %+v, want %+v", frag, spec.Agg.Window, want)
		}
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	spec, err := Parse("q", "from quotes where price between 1 and 2 aggregate Count() window 5")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Source != "quotes" || len(spec.Filters) != 1 || spec.Agg == nil {
		t.Fatalf("spec = %+v", spec)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT x",
		"FROM",
		"FROM quotes WHERE",
		"FROM quotes WHERE price",
		"FROM quotes WHERE price BETWEEN 1",
		"FROM quotes WHERE price BETWEEN 1 AND",
		"FROM quotes WHERE price IN (1)",
		"FROM quotes WHERE symbol IN ()",
		"FROM quotes WHERE symbol IN ('a' 'b')",
		"FROM quotes JOIN trades",
		"FROM quotes JOIN trades ON a < b",
		"FROM quotes AGGREGATE frobnicate(price)",
		"FROM quotes AGGREGATE sum()",
		"FROM quotes AGGREGATE sum(price) WINDOW 0",
		"FROM quotes AGGREGATE sum(price) WINDOW -3",
		"FROM quotes trailing",
		"FROM quotes WHERE price = 'unterminated",
		"FROM quotes WHERE price @ 3",
	}
	for _, src := range bad {
		if _, err := Parse("q", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParsedQueryRuns(t *testing.T) {
	catalog := workload.Catalog(100, 10)
	spec, err := Parse("q", "FROM quotes WHERE symbol IN ('S0000') AND price >= 0 AGGREGATE count() WINDOW 100")
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	q, err := engine.Compile(spec, catalog, func(b stream.Batch) { results += len(b) })
	if err != nil {
		t.Fatal(err)
	}
	tick := workload.NewTicker(3, 100, 1.5)
	matched := 0
	for i := 0; i < 500; i++ {
		tu := tick.Next()
		if tu.Value(0).AsString() == "S0000" {
			matched++
		}
		q.Feed("quotes", tu)
	}
	if results != matched {
		t.Fatalf("results = %d, want %d", results, matched)
	}
	if matched == 0 {
		t.Fatal("workload produced no matching tuples (bad test)")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		"FROM quotes",
		"FROM quotes WHERE price BETWEEN 10 AND 20",
		"FROM quotes WHERE symbol IN ('a', 'b') AND volume <= 100",
		"FROM quotes JOIN trades ON symbol = symbol WINDOW 50 WHERE price >= 5",
		"FROM quotes AGGREGATE avg(price) BY symbol WINDOW 60s",
		"FROM quotes WHERE price = 7 AGGREGATE count() WINDOW 10",
	}
	for _, src := range srcs {
		spec, err := Parse("q", src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		text := Format(spec)
		spec2, err := Parse("q", text)
		if err != nil {
			t.Fatalf("re-parse %q: %v", text, err)
		}
		if Format(spec2) != text {
			t.Errorf("not a fixpoint: %q -> %q", text, Format(spec2))
		}
	}
}

// TestFormatRoundTripGenerated round-trips workload-generated specs:
// Parse(Format(spec)) must preserve the query's semantics (interest).
func TestFormatRoundTripGenerated(t *testing.T) {
	catalog := workload.Catalog(100, 10)
	sc, _ := catalog.Lookup("quotes")
	tick := workload.NewTicker(5, 100, 1.3)
	gen := workload.NewQueryGen(5, tick.Symbols(), 4, 0.3)
	for _, spec := range gen.Specs(50) {
		text := Format(spec)
		got, err := Parse(spec.ID, text)
		if err != nil {
			t.Fatalf("%s: %q: %v", spec.ID, text, err)
		}
		// Same data interest before and after.
		a := spec.Interest("quotes", sc)
		b := got.Interest("quotes", sc)
		for i := 0; i < 200; i++ {
			tu := tick.Next()
			if a.Matches(sc, tu) != b.Matches(sc, tu) {
				t.Fatalf("%s: interest drift on %v\n  text: %s", spec.ID, tu, text)
			}
		}
	}
}

func TestFormatCombinedRangeAndKeys(t *testing.T) {
	spec := engine.QuerySpec{
		ID:     "q",
		Source: "s",
		Filters: []engine.FilterSpec{
			{Field: "p", Lo: 1, Hi: 2, KeyField: "k", Keys: []string{"x"}},
		},
	}
	text := Format(spec)
	if !strings.Contains(text, "BETWEEN") || !strings.Contains(text, "IN") {
		t.Fatalf("combined filter format = %q", text)
	}
	got, err := Parse("q", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Filters) != 2 {
		t.Fatalf("combined filter split into %d", len(got.Filters))
	}
}

func TestParseDistinct(t *testing.T) {
	spec, err := Parse("q", "FROM quotes WHERE price >= 0 DISTINCT BY symbol WINDOW 100")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Distinct == nil || spec.Distinct.Field != "symbol" ||
		spec.Distinct.Window.Count != 100 {
		t.Fatalf("distinct = %+v", spec.Distinct)
	}
	if _, err := Parse("q", "FROM quotes DISTINCT symbol"); err == nil {
		t.Error("DISTINCT without BY accepted")
	}
}

func TestParseTopK(t *testing.T) {
	spec, err := Parse("q", "FROM quotes TOP 3 OF price BY symbol WINDOW 60s")
	if err != nil {
		t.Fatal(err)
	}
	tk := spec.TopK
	if tk == nil || tk.K != 3 || tk.ValueField != "price" || tk.KeyField != "symbol" {
		t.Fatalf("topk = %+v", tk)
	}
	if tk.Window.Kind != stream.WindowByTime || tk.Window.Duration != time.Minute {
		t.Fatalf("window = %+v", tk.Window)
	}
	bad := []string{
		"FROM quotes TOP 0 OF price BY symbol",
		"FROM quotes TOP x OF price BY symbol",
		"FROM quotes TOP 3 price BY symbol",
		"FROM quotes TOP 3 OF price symbol",
	}
	for _, src := range bad {
		if _, err := Parse("q", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestFormatRoundTripDistinctAndTopK(t *testing.T) {
	srcs := []string{
		"FROM quotes WHERE price >= 0 DISTINCT BY symbol WINDOW 50",
		"FROM quotes TOP 5 OF price BY symbol WINDOW 10s",
		"FROM quotes DISTINCT BY symbol WINDOW 8 AGGREGATE count() WINDOW 16",
	}
	for _, src := range srcs {
		spec, err := Parse("q", src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		text := Format(spec)
		spec2, err := Parse("q", text)
		if err != nil {
			t.Fatalf("re-parse %q: %v", text, err)
		}
		if Format(spec2) != text {
			t.Errorf("not a fixpoint: %q -> %q", text, Format(spec2))
		}
	}
}

// Property: Parse never panics on arbitrary input.
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", src, r)
			}
		}()
		_, _ = Parse("q", src)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// And on keyword-dense inputs specifically.
	keywordish := []string{
		"FROM FROM FROM", "FROM q WHERE WHERE", "FROM q TOP TOP",
		"FROM q JOIN ON = WINDOW", "FROM q AGGREGATE ((((",
		"FROM q WHERE a BETWEEN AND AND", "FROM q DISTINCT BY BY",
	}
	for _, src := range keywordish {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse("q", src)
		}()
	}
}
