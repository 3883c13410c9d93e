package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestMatchIndexEquivalenceRandom is the index's proof: over random
// owner lists, sets and batches, Route, the one-owner CompiledSet.Matches
// and the interpreted InterestSet.Matches give every (owner, tuple) pair
// one verdict, and Route lists each owner's rows in batch order. The
// generators cover what the probe could get wrong: short tuples and
// numeric fields under a key set (both read ""), terms keyed on another
// field than the hashed one or on two fields, dead terms, empty sets,
// NaN and ±Inf, foreign-stream tuples, owners without a registration
// (every row) and owners with an unconstrained term (every row of the
// stream).
func TestMatchIndexEquivalenceRandom(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(20))
	var routed Routed // reused across trials, as a relay's pooled scratch is
	accepted, rejected, keyedIndexes, residualOnly := 0, 0, 0, 0
	for trial := 0; trial < 600; trial++ {
		owners := make([]*InterestSet, rng.Intn(7)) // sometimes none
		for o := range owners {
			switch rng.Intn(8) {
			case 0:
				continue // no registration
			case 1:
				owners[o] = NewInterestSet("quotes")
				owners[o].Add(randomInterest(rng, sc))
				owners[o].Add(NewInterest("quotes")) // MatchesAll
			default:
				owners[o] = NewInterestSet("quotes")
				for n := rng.Intn(5); n > 0; n-- { // sometimes empty
					owners[o].Add(randomInterest(rng, sc))
				}
			}
		}
		ix := NewMatchIndex("quotes", sc, owners)
		if ix.keyIdx >= 0 {
			keyedIndexes++
		} else {
			residualOnly++
		}
		singles := make([]*CompiledSet, len(owners))
		for o, set := range owners {
			if set != nil {
				singles[o] = CompileSet(set, sc)
			}
		}
		b := make(Batch, rng.Intn(24)) // sometimes empty
		for i := range b {
			tupleStream := "quotes"
			if rng.Intn(10) == 0 {
				tupleStream = "other"
			}
			b[i] = randomTuple(rng, tupleStream)
		}
		ix.Route(b, &routed)
		for o, set := range owners {
			rows := routed.Rows(o)
			next := 0
			for i, tu := range b {
				want := set == nil || set.Matches(sc, tu)
				got := next < len(rows) && int(rows[next]) == i
				if got != want {
					t.Fatalf("trial %d owner %d row %d: Route=%v interpreted=%v\nset=%+v\ntuple=%+v\nrows=%v",
						trial, o, i, got, want, set, tu, rows)
				}
				if set != nil && singles[o].Matches(tu) != want {
					t.Fatalf("trial %d owner %d row %d: one-owner set=%v interpreted=%v\nset=%+v\ntuple=%+v",
						trial, o, i, !want, want, set, tu)
				}
				if got {
					next++
					accepted++
				} else {
					rejected++
				}
			}
			if next != len(rows) {
				t.Fatalf("trial %d owner %d: rows %v are not the matching rows in batch order", trial, o, rows)
			}
		}
	}
	if accepted < 1000 || rejected < 1000 || keyedIndexes < 100 || residualOnly < 10 {
		t.Fatalf("degenerate run: %d verdicts true, %d false; %d indexes hashed a field, %d did not",
			accepted, rejected, keyedIndexes, residualOnly)
	}
}

// TestMatchIndexProbeKey pins pitfall by pitfall what the random test
// covers by volume: which field is hashed, and that the probe reads ""
// exactly where the row evaluator would.
func TestMatchIndexProbeKey(t *testing.T) {
	sc := compiledTestSchema(t)
	set := func(terms ...Interest) *InterestSet {
		s := NewInterestSet("quotes")
		for _, in := range terms {
			s.Add(in)
		}
		return s
	}
	q := NewInterest("quotes")
	owners := []*InterestSet{
		set(q.WithKeys("venue", "nyse"), q.WithKeys("venue", "bats").WithKeys("symbol", "ibm")),
		set(q.WithKeys("venue", "", "arca")),
		set(q.WithKeys("symbol", "ibm"), q.WithRange("ghost", 0, 1)),
		set(q.WithKeys("venue"), q.WithKeys("venue", "nyse").WithRange("price", 0, 10)),
		set(),
	}
	ix := NewMatchIndex("quotes", sc, owners)
	if want, _ := sc.FieldIndex("venue"); ix.keyIdx != want {
		t.Fatalf("hashed field %d, want venue (%d): most terms are keyed on it", ix.keyIdx, want)
	}
	mk := func(vals ...Value) Tuple { return NewTuple("quotes", 1, time.Unix(0, 0), vals...) }
	b := Batch{
		mk(String("aapl"), Float(5), Int(1), String("nyse")), // owners 0 and 3
		mk(String("ibm"), Float(50), Int(1), String("bats")), // owners 0 (two key checks) and 2
		mk(String("ibm")),                         // short: venue reads "" → owner 1; symbol → owner 2
		mk(String("x"), Float(5), Int(1), Int(7)), // numeric venue reads "" → owner 1
		NewTuple("other", 1, time.Unix(0, 0), String("ibm"), Float(5), Int(1), String("nyse")),
	}
	var routed Routed
	ix.Route(b, &routed)
	want := [][]int32{{0, 1}, {2, 3}, {1, 2}, {0}, {}}
	for o := range owners {
		if got := routed.Rows(o); fmt.Sprint(got) != fmt.Sprint(want[o]) {
			t.Errorf("owner %d rows = %v, want %v", o, got, want[o])
		}
	}
}

// hubOwners builds the registrations of a fan-out hub: owner 0 empty (no
// local delivery) and keyed terms dealt round-robin over the other
// owners, each watching keysPer symbols nobody else watches and a 25 %
// volume band.
func hubOwners(owners, terms, keysPer int) ([]*InterestSet, []string) {
	sets := make([]*InterestSet, 1+owners)
	for o := range sets {
		sets[o] = NewInterestSet("quotes")
	}
	var symbols []string
	for i := 0; i < terms; i++ {
		keys := make([]string, keysPer)
		for k := range keys {
			keys[k] = fmt.Sprintf("S%05d", len(symbols))
			symbols = append(symbols, keys[k])
		}
		lo := float64(i%4) * 2500
		sets[1+i%owners].Add(NewInterest("quotes").WithKeys("symbol", keys...).WithRange("size", lo, lo+2500))
	}
	return sets, symbols
}

func hubBatch(rng *rand.Rand, symbols []string, n int) Batch {
	b := make(Batch, n)
	for i := range b {
		b[i] = NewTuple("quotes", uint64(i), time.Unix(0, 0),
			String(symbols[rng.Intn(len(symbols))]), Float(rng.Float64()*500),
			Int(int64(rng.Intn(10000))), String("nyse"))
	}
	return b
}

// TestRouteZeroAllocs: routing a batch into a warmed Routed allocates
// nothing, on a 12-owner hub and on a range-only (residual) index.
func TestRouteZeroAllocs(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(5))
	hub, symbols := hubOwners(12, 12, 8)
	ranges := []*InterestSet{NewInterestSet("quotes"), NewInterestSet("quotes")}
	for i := 0; i < 8; i++ {
		ranges[i%2].Add(NewInterest("quotes").WithRange("price", float64(i)*50, float64(i)*50+40))
	}
	b := hubBatch(rng, symbols, 64)
	for name, owners := range map[string][]*InterestSet{"hub": hub, "ranges": ranges} {
		ix := NewMatchIndex("quotes", sc, owners)
		var routed Routed
		ix.Route(b, &routed) // sizes the slab
		matched := 0
		allocs := testing.AllocsPerRun(200, func() {
			ix.Route(b, &routed)
			matched += len(routed.Rows(1))
		})
		if allocs != 0 {
			t.Errorf("%s: Route allocated %.1f times per batch, want 0", name, allocs)
		}
		if matched == 0 {
			t.Errorf("%s: owner 1 matched nothing; the guard measured an idle index", name)
		}
	}
}

// BenchmarkMatchIndex sizes the index: ns per tuple routed to 12 owners
// at 16 / 256 / 4 096 keyed terms (one probe, then the candidates), and
// at 16 / 256 range-only terms, which no key files and every tuple scans
// — the rows a sorted-range index for key-less terms would be sized by.
func BenchmarkMatchIndex(b *testing.B) {
	sc, err := NewSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 500},
		Field{Name: "size", Type: KindInt, Lo: 0, Hi: 10000},
		Field{Name: "venue", Type: KindString, Card: 8})
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, owners []*InterestSet, batch Batch) {
		b.Run(name, func(b *testing.B) {
			ix := NewMatchIndex("quotes", sc, owners)
			var routed Routed
			ix.Route(batch, &routed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Route(batch, &routed)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/tuple")
		})
	}
	for _, terms := range []int{16, 256, 4096} {
		owners, symbols := hubOwners(12, terms, 8)
		run(fmt.Sprintf("keyed=%d", terms), owners, hubBatch(rand.New(rand.NewSource(1)), symbols, 64))
	}
	for _, terms := range []int{16, 256} {
		owners := make([]*InterestSet, 13)
		for o := range owners {
			owners[o] = NewInterestSet("quotes")
		}
		// Narrow price bands, 0.2 % each: most tuples miss every term of
		// every owner, so the scan runs to the end of each list.
		for i := 0; i < terms; i++ {
			lo := float64(i) * 500 / float64(terms)
			owners[1+i%12].Add(NewInterest("quotes").WithRange("price", lo, lo+1))
		}
		_, symbols := hubOwners(12, 16, 8)
		run(fmt.Sprintf("ranges=%d", terms), owners, hubBatch(rand.New(rand.NewSource(1)), symbols, 64))
	}
}

// BenchmarkSimplify times one registration's aggregate: n terms of 2–5
// symbols and a volume band, merged down to the 16 a relay registers.
func BenchmarkSimplify(b *testing.B) {
	sc, err := NewSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 500},
		Field{Name: "size", Type: KindInt, Lo: 0, Hi: 10000})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{32, 64, 256} {
		b.Run(fmt.Sprintf("%dto16", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			set := NewInterestSet("quotes")
			for i := 0; i < n; i++ {
				keys := make([]string, 2+rng.Intn(4))
				for k := range keys {
					keys[k] = fmt.Sprintf("S%02d", rng.Intn(100))
				}
				lo := rng.Float64() * 6000
				set.Add(NewInterest("quotes").WithKeys("symbol", keys...).WithRange("size", lo, lo+4000))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				work := set.Clone()
				b.StartTimer()
				work.Simplify(sc, 16)
				if len(work.Terms) != 16 {
					b.Fatalf("simplified to %d terms", len(work.Terms))
				}
			}
		})
	}
}
