package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestRangeOps(t *testing.T) {
	r := Range{Lo: 10, Hi: 20}
	if !r.Contains(10) || !r.Contains(20) || !r.Contains(15) {
		t.Error("closed interval should contain endpoints and interior")
	}
	if r.Contains(9.999) || r.Contains(20.001) {
		t.Error("interval contains outside points")
	}
	if r.Empty() {
		t.Error("non-empty range reported empty")
	}
	if !(Range{Lo: 5, Hi: 4}).Empty() {
		t.Error("inverted range should be empty")
	}
	if w := r.Width(); w != 10 {
		t.Errorf("width = %v", w)
	}
	if w := (Range{Lo: 5, Hi: 4}).Width(); w != 0 {
		t.Errorf("empty width = %v", w)
	}
	inter := r.Intersect(Range{Lo: 15, Hi: 30})
	if inter.Lo != 15 || inter.Hi != 20 {
		t.Errorf("intersect = %+v", inter)
	}
	if !r.Intersect(Range{Lo: 30, Hi: 40}).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	u := r.Union(Range{Lo: 30, Hi: 40})
	if u.Lo != 10 || u.Hi != 40 {
		t.Errorf("union = %+v", u)
	}
	if got := (Range{Lo: 1, Hi: 0}).Union(r); got != r {
		t.Errorf("union with empty = %+v", got)
	}
	if got := r.Union(Range{Lo: 1, Hi: 0}); got != r {
		t.Errorf("union with empty (rhs) = %+v", got)
	}
}

func TestInterestMatches(t *testing.T) {
	s := quotesSchema(t)
	in := NewInterest("quotes").
		WithRange("price", 50, 100).
		WithKeys("symbol", "ibm", "msft")

	match := quoteTuple(1, "ibm", 75, 10)
	if !in.Matches(s, match) {
		t.Error("matching tuple rejected")
	}
	if in.Matches(s, quoteTuple(2, "goog", 75, 10)) {
		t.Error("wrong symbol accepted")
	}
	if in.Matches(s, quoteTuple(3, "ibm", 200, 10)) {
		t.Error("out-of-range price accepted")
	}
	other := match
	other.Stream = "trades"
	if in.Matches(s, other) {
		t.Error("wrong stream accepted")
	}
	// Constraint on a missing field never matches.
	bad := NewInterest("quotes").WithRange("nope", 0, 1)
	if bad.Matches(s, match) {
		t.Error("constraint on missing field matched")
	}
	badKeys := NewInterest("quotes").WithKeys("nope", "x")
	if badKeys.Matches(s, match) {
		t.Error("key constraint on missing field matched")
	}
	if !NewInterest("quotes").Matches(s, match) {
		t.Error("unconstrained interest should match")
	}
}

func TestInterestCloneIsDeep(t *testing.T) {
	in := NewInterest("quotes").WithRange("price", 0, 10).WithKeys("symbol", "a")
	cl := in.Clone()
	cl.Ranges["price"] = Range{Lo: 5, Hi: 6}
	cl.Keys["symbol"]["b"] = true
	if in.Ranges["price"] != (Range{Lo: 0, Hi: 10}) {
		t.Error("Clone shares Ranges")
	}
	if in.Keys["symbol"]["b"] {
		t.Error("Clone shares Keys")
	}
}

func TestInterestSelectivity(t *testing.T) {
	s := quotesSchema(t) // price domain [0,1000], symbol card 100
	in := NewInterest("quotes").WithRange("price", 0, 100)
	if got := in.Selectivity(s); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("price selectivity = %v, want 0.1", got)
	}
	in2 := in.WithKeys("symbol", "a", "b", "c", "d", "e") // 5/100
	if got := in2.Selectivity(s); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("combined selectivity = %v, want 0.005", got)
	}
	if got := NewInterest("quotes").Selectivity(s); got != 1 {
		t.Errorf("unconstrained selectivity = %v, want 1", got)
	}
	missing := NewInterest("quotes").WithRange("nope", 0, 1)
	if got := missing.Selectivity(s); got != 0 {
		t.Errorf("missing-field selectivity = %v, want 0", got)
	}
	missingKeys := NewInterest("quotes").WithKeys("nope", "x")
	if got := missingKeys.Selectivity(s); got != 0 {
		t.Errorf("missing-key-field selectivity = %v, want 0", got)
	}
	// Key set larger than cardinality clamps to 1.
	tiny := MustSchema("t", Field{Name: "k", Type: KindString, Card: 1})
	big := NewInterest("t").WithKeys("k", "a", "b", "c")
	if got := big.Selectivity(tiny); got != 1 {
		t.Errorf("clamped selectivity = %v, want 1", got)
	}
}

func TestOverlap(t *testing.T) {
	s := quotesSchema(t)
	a := NewInterest("quotes").WithRange("price", 0, 100)
	b := NewInterest("quotes").WithRange("price", 50, 150)
	// Intersection [50,100] is 5% of the [0,1000] domain.
	if got := Overlap(a, b, s); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("overlap = %v, want 0.05", got)
	}
	c := NewInterest("quotes").WithRange("price", 200, 300)
	if got := Overlap(a, c, s); got != 0 {
		t.Errorf("disjoint overlap = %v, want 0", got)
	}
	d := NewInterest("trades")
	if got := Overlap(a, d, s); got != 0 {
		t.Errorf("cross-stream overlap = %v, want 0", got)
	}
	// Key-set overlap.
	e := NewInterest("quotes").WithKeys("symbol", "a", "b")
	f := NewInterest("quotes").WithKeys("symbol", "b", "c")
	if got := Overlap(e, f, s); math.Abs(got-0.01) > 1e-12 { // {b} = 1/100
		t.Errorf("key overlap = %v, want 0.01", got)
	}
}

func TestCover(t *testing.T) {
	s := quotesSchema(t)
	a := NewInterest("quotes").WithRange("price", 0, 100)
	b := NewInterest("quotes").WithRange("price", 200, 300)
	cov := Cover(a, b)
	if r := cov.Ranges["price"]; r.Lo != 0 || r.Hi != 300 {
		t.Errorf("cover range = %+v", r)
	}
	// Everything matching a or b must match the cover.
	for _, price := range []float64{0, 50, 100, 200, 250, 300} {
		if !cov.Matches(s, quoteTuple(1, "x", price, 0)) {
			t.Errorf("cover rejects price %v", price)
		}
	}
	// A field constrained on one side only becomes unconstrained.
	c := NewInterest("quotes").WithRange("price", 0, 10).WithRange("volume", 0, 5)
	cov2 := Cover(c, a)
	if _, constrained := cov2.Ranges["volume"]; constrained {
		t.Error("one-sided constraint survived Cover")
	}
	// Key sets union.
	e := NewInterest("quotes").WithKeys("symbol", "a")
	f := NewInterest("quotes").WithKeys("symbol", "b")
	covK := Cover(e, f)
	if set := covK.Keys["symbol"]; !set["a"] || !set["b"] || len(set) != 2 {
		t.Errorf("cover keys = %v", set)
	}
	// Cross-stream cover is fully unconstrained.
	g := Cover(a, NewInterest("trades"))
	if !g.Unconstrained() || g.Stream != "quotes" {
		t.Errorf("cross-stream cover = %v", g)
	}
}

func TestInterestString(t *testing.T) {
	if got := NewInterest("q").String(); got != "q{*}" {
		t.Errorf("unconstrained String = %q", got)
	}
	in := NewInterest("q").WithRange("p", 1, 2).WithKeys("s", "b", "a")
	got := in.String()
	if !strings.Contains(got, "p in [1,2]") || !strings.Contains(got, "s in {a,b}") {
		t.Errorf("String = %q", got)
	}
}

func TestInterestSet(t *testing.T) {
	s := quotesSchema(t)
	set := NewInterestSet("quotes")
	if set.Matches(s, quoteTuple(1, "a", 1, 1)) {
		t.Error("empty set should match nothing")
	}

	set.Add(NewInterest("quotes").WithRange("price", 0, 100))
	set.Add(NewInterest("quotes").WithRange("price", 500, 600))
	set.Add(NewInterest("other")) // ignored: wrong stream
	if len(set.Terms) != 2 {
		t.Fatalf("terms = %d, want 2", len(set.Terms))
	}
	if !set.Matches(s, quoteTuple(1, "a", 50, 1)) {
		t.Error("first term should match")
	}
	if !set.Matches(s, quoteTuple(1, "a", 550, 1)) {
		t.Error("second term should match")
	}
	if set.Matches(s, quoteTuple(1, "a", 300, 1)) {
		t.Error("gap should not match")
	}
}

func TestInterestSetSimplify(t *testing.T) {
	s := quotesSchema(t)
	set := NewInterestSet("quotes")
	// Two close terms and one far term: simplify to 2 should merge the
	// close pair, keeping filtering as tight as possible.
	set.Add(NewInterest("quotes").WithRange("price", 0, 10))
	set.Add(NewInterest("quotes").WithRange("price", 12, 20))
	set.Add(NewInterest("quotes").WithRange("price", 900, 910))
	set.Simplify(s, 2)
	if len(set.Terms) != 2 {
		t.Fatalf("terms after simplify = %d, want 2", len(set.Terms))
	}
	if !set.Matches(s, quoteTuple(1, "a", 5, 1)) ||
		!set.Matches(s, quoteTuple(1, "a", 15, 1)) ||
		!set.Matches(s, quoteTuple(1, "a", 905, 1)) {
		t.Error("simplified set lost coverage")
	}
	if set.Matches(s, quoteTuple(1, "a", 500, 1)) {
		t.Error("simplified set merged the wrong pair (covers 500)")
	}
	// maxTerms < 1 collapses to a single cover.
	set.Simplify(s, 0)
	if len(set.Terms) != 1 {
		t.Fatalf("terms = %d, want 1", len(set.Terms))
	}
}

func TestInterestSetClone(t *testing.T) {
	set := NewInterestSet("quotes")
	set.Add(NewInterest("quotes").WithRange("price", 0, 10))
	cl := set.Clone()
	cl.Terms[0].Ranges["price"] = Range{Lo: 5, Hi: 6}
	if set.Terms[0].Ranges["price"] != (Range{Lo: 0, Hi: 10}) {
		t.Error("Clone shares term storage")
	}
}

// Property: widening safety — every tuple matched by any term is matched
// by the set's Cover.
func TestCoverWideningSafetyProperty(t *testing.T) {
	s := quotesSchema(t)
	f := func(lo1, w1, lo2, w2, probe uint16) bool {
		a := NewInterest("quotes").WithRange("price", float64(lo1), float64(lo1)+float64(w1))
		b := NewInterest("quotes").WithRange("price", float64(lo2), float64(lo2)+float64(w2))
		cov := Cover(a, b)
		tu := quoteTuple(1, "x", float64(probe), 0)
		if a.Matches(s, tu) || b.Matches(s, tu) {
			return cov.Matches(s, tu)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Overlap is symmetric and bounded by each side's selectivity.
func TestOverlapSymmetricBoundedProperty(t *testing.T) {
	s := quotesSchema(t)
	f := func(lo1, w1, lo2, w2 uint8) bool {
		a := NewInterest("quotes").WithRange("price", float64(lo1), float64(lo1)+float64(w1))
		b := NewInterest("quotes").WithRange("price", float64(lo2), float64(lo2)+float64(w2))
		ab, ba := Overlap(a, b, s), Overlap(b, a, s)
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		return ab <= a.Selectivity(s)+1e-12 && ab <= b.Selectivity(s)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCoverSelectivityBitIdentical: with many constrained fields the
// product of per-field factors depends on the order it is taken in, by
// an ulp or so. coverSelectivity and Selectivity both multiply in schema
// field order, so a pair's cost is the same bits on every call and equals
// its built cover's selectivity exactly — the memoised Simplify and its
// reference then pick the same merges.
func TestCoverSelectivityBitIdentical(t *testing.T) {
	fields := []Field{{Name: "sym", Type: KindString, Card: 97}}
	for i := 0; i < 7; i++ {
		fields = append(fields, Field{Name: fmt.Sprintf("f%d", i), Type: KindFloat, Lo: 0, Hi: 1000})
	}
	sc := MustSchema("s", fields...)
	mk := func(shift float64, syms ...string) Interest {
		in := NewInterest("s").WithKeys("sym", syms...)
		for i := 0; i < 7; i++ {
			lo := 13.7*float64(i) + shift
			in = in.WithRange(fmt.Sprintf("f%d", i), lo, lo+100+71.3*float64(i))
		}
		return in
	}
	a, b := mk(0, "x", "y", "z"), mk(41.9, "y", "w")
	want := coverSelectivity(a, b, sc)
	if built := Cover(a, b).Selectivity(sc); math.Float64bits(built) != math.Float64bits(want) {
		t.Fatalf("coverSelectivity %v (%#x), the built cover's selectivity %v (%#x)",
			want, math.Float64bits(want), built, math.Float64bits(built))
	}
	for i := 0; i < 100; i++ {
		if got := coverSelectivity(a, b, sc); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: coverSelectivity %v (%#x), first call %v (%#x)",
				i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, first := a.Selectivity(sc), mk(0, "x", "y", "z").Selectivity(sc); got != first {
			t.Fatalf("call %d: Selectivity %v, then %v", i, first, got)
		}
	}
}

// Property: Simplify never loses coverage.
func TestSimplifyNeverLosesCoverageProperty(t *testing.T) {
	s := quotesSchema(t)
	f := func(spans []uint8, probe uint8) bool {
		if len(spans) == 0 {
			return true
		}
		set := NewInterestSet("quotes")
		for _, sp := range spans {
			lo := float64(sp)
			set.Add(NewInterest("quotes").WithRange("price", lo, lo+10))
		}
		tu := quoteTuple(1, "x", float64(probe), 0)
		matchedBefore := set.Matches(s, tu)
		set.Simplify(s, 2)
		if matchedBefore && !set.Matches(s, tu) {
			return false
		}
		return len(set.Terms) <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// simplifyReference is Simplify as it was before terms were compiled:
// every pair costed on the terms' maps (coverSelectivity), every merge a
// Cover. TestSimplifyMatchesReference holds Simplify to it.
func simplifyReference(s *InterestSet, sc *Schema, maxTerms int) {
	if maxTerms < 1 {
		maxTerms = 1
	}
	n := len(s.Terms)
	if n <= maxTerms {
		return
	}
	sels := make([]float64, n)
	for i := range s.Terms {
		sels[i] = s.Terms[i].Selectivity(sc)
	}
	cost := make([]float64, n*n)
	pairCost := func(i, j int) float64 {
		return coverSelectivity(s.Terms[i], s.Terms[j], sc) - sels[i] - sels[j]
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
		for j := i + 1; j < n; j++ {
			cost[i*n+j] = pairCost(i, j)
		}
	}
	for len(live) > maxTerms {
		bestA, bestB := 0, 1
		bestCost := math.Inf(1)
		for a, i := range live {
			for b := a + 1; b < len(live); b++ {
				if c := cost[i*n+live[b]]; c < bestCost {
					bestCost, bestA, bestB = c, a, b
				}
			}
		}
		i, j := live[bestA], live[bestB]
		sels[i] = coverSelectivity(s.Terms[i], s.Terms[j], sc)
		s.Terms[i] = Cover(s.Terms[i], s.Terms[j])
		live = append(live[:bestB], live[bestB+1:]...)
		for _, k := range live {
			switch {
			case k < i:
				cost[k*n+i] = pairCost(k, i)
			case k > i:
				cost[i*n+k] = pairCost(i, k)
			}
		}
	}
	for a, i := range live {
		s.Terms[a] = s.Terms[i]
	}
	s.Terms = s.Terms[:len(live)]
}

// randomTerm draws one term over the quotes schema and a few fields it
// lacks: overlapping or disjoint price and volume bands, symbol sets drawn
// from a small pool (so terms share keys, or not), empty ranges and key
// sets, a range on the string field, and now and then a constraint on a
// field the schema does not declare.
func randomTerm(rng *rand.Rand) Interest {
	in := NewInterest("quotes")
	band := func(width float64) (float64, float64) {
		lo := math.Floor(rng.Float64()*20) * width / 4 // a grid, so bands repeat and touch
		return lo, lo + width*float64(1+rng.Intn(3))
	}
	if rng.Intn(3) > 0 {
		lo, hi := band(50)
		if rng.Intn(12) == 0 {
			lo, hi = hi, lo // empty
		}
		in = in.WithRange("price", lo, hi)
	}
	if rng.Intn(3) == 0 {
		lo, hi := band(5e4)
		in = in.WithRange("volume", lo, hi)
	}
	if rng.Intn(2) == 0 {
		var keys []string
		for k := rng.Intn(5); k > 0; k-- { // zero keys: the empty set
			keys = append(keys, fmt.Sprintf("S%d", rng.Intn(8)))
		}
		in = in.WithKeys("symbol", keys...)
	}
	if rng.Intn(16) == 0 {
		in = in.WithRange("symbol", 0, 1)
	}
	switch rng.Intn(12) {
	case 0:
		in = in.WithRange("ghost", 0, float64(rng.Intn(3)))
	case 1:
		in = in.WithKeys("phantom", fmt.Sprintf("p%d", rng.Intn(2)))
	}
	return in
}

// TestSimplifyMatchesReference: over random sets of 1–64 terms and every
// cap from 1 to the set's size, Simplify leaves exactly the terms the
// map-based reference does, and writes no term it was given.
func TestSimplifyMatchesReference(t *testing.T) {
	sc := quotesSchema(t)
	rng := rand.New(rand.NewSource(40))
	sizes := []int{1, 2, 3, 64}
	for len(sizes) < 28 {
		sizes = append(sizes, 1+rng.Intn(64))
	}
	for _, n := range sizes {
		in := NewInterestSet("quotes")
		for i := 0; i < n; i++ {
			in.Add(randomTerm(rng))
		}
		before := in.Clone()
		for limit := 1; limit <= n; limit++ {
			got := &InterestSet{Stream: "quotes", Terms: append([]Interest(nil), in.Terms...)}
			want := &InterestSet{Stream: "quotes", Terms: append([]Interest(nil), in.Terms...)}
			got.Simplify(sc, limit)
			simplifyReference(want, sc, limit)
			if !reflect.DeepEqual(got.Terms, want.Terms) {
				t.Fatalf("%d terms, cap %d:\n got  %v\n want %v", n, limit, got.Terms, want.Terms)
			}
		}
		if !reflect.DeepEqual(in, before) {
			t.Fatalf("%d terms: Simplify wrote a term it was given", n)
		}
	}
}

func BenchmarkInterestMatches(b *testing.B) {
	sc := MustSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 1000},
		Field{Name: "volume", Type: KindInt, Lo: 0, Hi: 1e6},
	)
	in := NewInterest("quotes").WithRange("price", 100, 200).WithKeys("symbol", "a", "b", "c")
	tu := NewTuple("quotes", 1, time.Unix(1, 0), String("b"), Float(150), Int(10))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !in.Matches(sc, tu) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkInterestSetMatches(b *testing.B) {
	sc := MustSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 1000},
	)
	set := NewInterestSet("quotes")
	for i := 0; i < 16; i++ {
		set.Add(NewInterest("quotes").WithRange("price", float64(i*60), float64(i*60+30)))
	}
	tu := NewTuple("quotes", 1, time.Unix(1, 0), String("x"), Float(935))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		set.Matches(sc, tu)
	}
}
