package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func compiledTestSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 500},
		Field{Name: "size", Type: KindInt, Lo: 0, Hi: 10000},
		Field{Name: "venue", Type: KindString, Card: 8},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

// agree holds the three evaluators of one interest to one verdict per
// tuple of the batch: the interpreted Interest.Matches (the reference),
// the compiled row evaluator and the compiled column evaluator. The
// compiled form leaves the stream name to the CompiledSet around it, so
// the interest is checked twice: as the one term of a compiled set
// against the reference as it is, and bare — MatchValues and Apply —
// against the reference retargeted at the tuple's stream. It returns
// how many tuples the bare interest accepts.
func agree(t *testing.T, in Interest, sc *Schema, b Batch) int {
	t.Helper()
	set := NewInterestSet(in.Stream)
	set.Add(in)
	cs := CompileSet(set, sc)
	c := CompileInterest(in, sc)
	cb, kb := NewColBatch(), new(KeyBits)
	cb.Reset(b)
	if n := c.Apply(cb, kb); n != cb.Len() {
		t.Fatalf("Apply returned %d with %d rows selected", n, cb.Len())
	}
	kept := 0
	for i, tu := range b {
		if got, want := cs.Matches(tu), in.Matches(sc, tu); got != want {
			t.Fatalf("row %d: compiled set of one=%v, interpreted=%v\ninterest=%v\ntuple=%v", i, got, want, in, tu)
		}
		ref := in
		ref.Stream = tu.Stream
		want := ref.Matches(sc, tu)
		if got := c.MatchValues(&tu); got != want {
			t.Fatalf("row %d: row evaluator=%v, interpreted=%v\ninterest=%v\ntuple=%v", i, got, want, in, tu)
		}
		got := kept < len(cb.sel) && int(cb.sel[kept]) == i
		if got != want {
			t.Fatalf("row %d: column evaluator=%v, interpreted=%v\ninterest=%v\ntuple=%v", i, got, want, in, tu)
		}
		if got {
			kept++
		}
	}
	// An empty selection — every row already filtered out — stays empty.
	cb.sel = cb.sel[:0]
	if n := c.Apply(cb, kb); n != 0 {
		t.Fatalf("Apply over an empty selection kept %d rows", n)
	}
	return kept
}

// TestCompiledInterestEquivalenceTable pins the tricky cases by hand:
// wrong stream, absent fields, single- and multi-key sets, empty sets,
// values outside the tuple's arity, and the contract's edges — NaN and
// ±Inf under bounded, unbounded and empty ranges, and non-string values
// and "" under key sets.
func TestCompiledInterestEquivalenceTable(t *testing.T) {
	sc := compiledTestSchema(t)
	mk := func(sym string, price float64, size int64, venue string) Tuple {
		return NewTuple("quotes", 1, time.Unix(0, 0),
			String(sym), Float(price), Int(size), String(venue))
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		in   Interest
		t    Tuple
		want bool
	}{
		{"unconstrained", NewInterest("quotes"), mk("ibm", 10, 5, "nyse"), true},
		{"wrong stream", NewInterest("trades").WithRange("price", 0, 100), mk("ibm", 10, 5, "nyse"), false},
		{"wrong stream tuple", NewInterest("quotes").WithRange("price", 0, 100),
			NewTuple("trades", 1, time.Unix(0, 0), Float(10)), false},
		{"range hit", NewInterest("quotes").WithRange("price", 5, 15), mk("ibm", 10, 5, "nyse"), true},
		{"range miss", NewInterest("quotes").WithRange("price", 5, 15), mk("ibm", 20, 5, "nyse"), false},
		{"range boundary lo", NewInterest("quotes").WithRange("price", 10, 15), mk("ibm", 10, 5, "nyse"), true},
		{"range boundary hi", NewInterest("quotes").WithRange("price", 5, 10), mk("ibm", 10, 5, "nyse"), true},
		{"range on int field", NewInterest("quotes").WithRange("size", 0, 10), mk("ibm", 10, 5, "nyse"), true},
		{"absent field range", NewInterest("quotes").WithRange("ghost", 0, 100), mk("ibm", 10, 5, "nyse"), false},
		{"absent field keys", NewInterest("quotes").WithKeys("ghost", "x"), mk("ibm", 10, 5, "nyse"), false},
		{"single key hit", NewInterest("quotes").WithKeys("symbol", "ibm"), mk("ibm", 10, 5, "nyse"), true},
		{"single key miss", NewInterest("quotes").WithKeys("symbol", "aapl"), mk("ibm", 10, 5, "nyse"), false},
		{"multi key hit", NewInterest("quotes").WithKeys("symbol", "aapl", "ibm", "msft"), mk("ibm", 10, 5, "nyse"), true},
		{"multi key miss", NewInterest("quotes").WithKeys("symbol", "aapl", "msft"), mk("ibm", 10, 5, "nyse"), false},
		{"key on numeric field", NewInterest("quotes").WithKeys("price", "10"), mk("ibm", 10, 5, "nyse"), false},
		{"combined hit", NewInterest("quotes").WithRange("price", 5, 15).WithKeys("venue", "nyse"),
			mk("ibm", 10, 5, "nyse"), true},
		{"combined half miss", NewInterest("quotes").WithRange("price", 5, 15).WithKeys("venue", "bats"),
			mk("ibm", 10, 5, "nyse"), false},
		{"short tuple", NewInterest("quotes").WithKeys("venue", "nyse"),
			NewTuple("quotes", 1, time.Unix(0, 0), String("ibm")), false},
		{"short tuple range", NewInterest("quotes").WithRange("price", 5, 15),
			NewTuple("quotes", 1, time.Unix(0, 0), String("ibm")), false},
		{"short tuple reads zero", NewInterest("quotes").WithRange("price", -1, 1).WithKeys("venue", ""),
			NewTuple("quotes", 1, time.Unix(0, 0), String("ibm")), true},
		{"NaN in no range", NewInterest("quotes").WithRange("price", 0, 500), mk("ibm", nan, 5, "nyse"), false},
		{"NaN not in the unbounded range", NewInterest("quotes").WithRange("price", -inf, inf), mk("ibm", nan, 5, "nyse"), false},
		{"+Inf outside a finite range", NewInterest("quotes").WithRange("price", 0, 500), mk("ibm", inf, 5, "nyse"), false},
		{"+Inf inside an open-ended range", NewInterest("quotes").WithRange("price", 0, inf), mk("ibm", inf, 5, "nyse"), true},
		{"-Inf inside an open-ended range", NewInterest("quotes").WithRange("price", -inf, 0), mk("ibm", -inf, 5, "nyse"), true},
		{"empty range", NewInterest("quotes").WithRange("price", 60, 50), mk("ibm", 55, 5, "nyse"), false},
		{"empty key set", NewInterest("quotes").WithKeys("symbol"), mk("", 10, 5, "nyse"), false},
		{"empty-string key hit", NewInterest("quotes").WithKeys("symbol", ""), mk("", 10, 5, "nyse"), true},
		{"empty-string key miss", NewInterest("quotes").WithKeys("symbol", "", "ibm"), mk("aapl", 10, 5, "nyse"), false},
		{"non-string reads the empty-string key", NewInterest("quotes").WithKeys("size", "", "5"), mk("ibm", 10, 5, "nyse"), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Matches(sc, tc.t); got != tc.want {
				t.Fatalf("Interest.Matches = %v, want %v", got, tc.want)
			}
			agree(t, tc.in, sc, Batch{tc.t})
		})
	}
}

// randomInterest builds a random interest over the schema: open-ended
// and (rarely) empty ranges, single-key, multi-key and ""-listing sets,
// sometimes a key set on a numeric field, sometimes a constraint on a
// field the schema does not have, and sometimes the wrong stream.
func randomInterest(rng *rand.Rand, sc *Schema) Interest {
	streamName := sc.Name()
	if rng.Intn(10) == 0 {
		streamName = "other"
	}
	in := NewInterest(streamName)
	syms := []string{"ibm", "aapl", "msft", "goog", "amzn", ""}
	for i := 0; i < sc.NumFields(); i++ {
		f := sc.Field(i)
		if rng.Intn(2) == 0 {
			continue
		}
		if f.Type == KindString || rng.Intn(6) == 0 {
			n := 1 + rng.Intn(3)
			ks := make([]string, 0, n)
			for j := 0; j < n; j++ {
				ks = append(ks, syms[rng.Intn(len(syms))])
			}
			in = in.WithKeys(f.Name, ks...)
			continue
		}
		lo := rng.Float64() * 100
		hi := lo + rng.Float64()*100
		switch rng.Intn(8) {
		case 0:
			lo = math.Inf(-1)
		case 1:
			hi = math.Inf(1)
		case 2:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 3:
			lo, hi = hi+1, lo // nothing is in it
		}
		in = in.WithRange(f.Name, lo, hi)
	}
	if rng.Intn(8) == 0 {
		in = in.WithRange("ghost", 0, 1) // absent from the schema
	}
	return in
}

// randomTuple draws a quotes-shaped tuple, sometimes shorter or longer
// than the schema, whose price is sometimes NaN or ±Inf and whose symbol
// is sometimes "".
func randomTuple(rng *rand.Rand, stream string) Tuple {
	syms := []string{"ibm", "aapl", "msft", "goog", "amzn", ""}
	venues := []string{"nyse", "bats", "arca"}
	nvals := rng.Intn(6)
	vals := make([]Value, 0, nvals)
	for i := 0; i < nvals; i++ {
		switch i {
		case 0:
			vals = append(vals, String(syms[rng.Intn(len(syms))]))
		case 1:
			price := rng.Float64() * 200
			switch rng.Intn(12) {
			case 0:
				price = math.NaN()
			case 1:
				price = math.Inf(1)
			case 2:
				price = math.Inf(-1)
			}
			vals = append(vals, Float(price))
		case 2:
			vals = append(vals, Int(int64(rng.Intn(200))))
		default:
			vals = append(vals, String(venues[rng.Intn(len(venues))]))
		}
	}
	return NewTuple(stream, uint64(rng.Intn(1000)), time.Unix(0, 0), vals...)
}

// TestCompiledInterestEquivalenceRandom is the one equivalence proof of
// the one predicate: over randomized interests and batches (seeded for
// reproducibility) the interpreted reference, the row evaluator and the
// column evaluator give every tuple the same verdict.
func TestCompiledInterestEquivalenceRandom(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(42))
	accepted, rejected := 0, 0
	for trial := 0; trial < 2000; trial++ {
		in := randomInterest(rng, sc)
		b := make(Batch, rng.Intn(24)) // sometimes empty
		for i := range b {
			tupleStream := "quotes"
			if rng.Intn(10) == 0 {
				tupleStream = "other"
			}
			b[i] = randomTuple(rng, tupleStream)
		}
		n := agree(t, in, sc, b)
		accepted += n
		rejected += len(b) - n
	}
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("degenerate run: %d verdicts true, %d false", accepted, rejected)
	}
}

// TestColumnEvaluatorSharedDictionaryRandom runs the column evaluator the
// way a shard does: one ColBatch for the whole run, whose key dictionary
// every interest binds into, and one KeyBits per interest kept from batch
// to batch. Interests join and leave mid-run, a joining one often between
// two others' runs over the same batch, and half of them list a key the
// batch holds that no interest has listed yet — so the key first enters
// the dictionary after the batch's symbol column was built with it
// reading as unlisted. Every (interest, row) verdict must be
// Interest.Matches's.
func TestColumnEvaluatorSharedDictionaryRandom(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(27))
	late := make([]string, 64) // keys only the batches carry at first
	for i := range late {
		late[i] = fmt.Sprintf("L%02d", i)
	}
	type bound struct {
		in Interest
		c  CompiledInterest
		kb KeyBits
	}
	cb := NewColBatch()
	newBound := func(b Batch) *bound {
		in := randomInterest(rng, sc)
		if rng.Intn(2) == 0 {
			for _, tu := range b {
				if k := tu.Value(0).AsString(); len(k) > 0 && k[0] == 'L' {
					if _, bound := cb.dict[k]; !bound {
						in = in.WithKeys("symbol", k, "ibm", "")
						break
					}
				}
			}
		}
		return &bound{in: in, c: CompileInterest(in, sc)}
	}
	var live []*bound
	accepted, rejected, lateBinds := 0, 0, 0
	for trial := 0; trial < 1500; trial++ {
		b := make(Batch, rng.Intn(33))
		for i := range b {
			b[i] = randomTuple(rng, "quotes")
			if len(b[i].Values) > 0 && rng.Intn(4) == 0 {
				b[i].Values[0] = String(late[rng.Intn(len(late))])
			}
		}
		cb.Reset(b)
		runs := make([]*bound, 0, len(live)+1)
		for _, i := range rng.Perm(len(live)) {
			runs = append(runs, live[i])
		}
		if len(live) < 4 || rng.Intn(4) == 0 {
			q := newBound(b)
			live = append(live, q)
			runs = slices.Insert(runs, rng.Intn(len(runs)+1), q)
		}
		for _, q := range runs {
			built, keys := len(cb.kbuilt) > 0 && cb.kbuilt[0], len(cb.dict)
			cb.ResetSel()
			q.c.Apply(cb, &q.kb)
			if built && len(cb.dict) > keys {
				lateBinds++
			}
			ref := q.in
			kept := 0
			for i, tu := range b {
				ref.Stream = tu.Stream
				want := ref.Matches(sc, tu)
				got := kept < cb.Len() && int(cb.sel[kept]) == i
				if got != want {
					t.Fatalf("trial %d row %d: column evaluator=%v, interpreted=%v\ninterest=%v\ntuple=%v",
						trial, i, got, want, q.in, tu)
				}
				if got {
					kept++
					accepted++
				} else {
					rejected++
				}
			}
			if kept != cb.Len() {
				t.Fatalf("trial %d: %d rows selected, %d accounted", trial, cb.Len(), kept)
			}
		}
		if len(live) > 24 {
			i := rng.Intn(len(live))
			live = append(live[:i], live[i+1:]...)
		}
	}
	if accepted < 1000 || rejected < 1000 {
		t.Fatalf("degenerate run: %d verdicts true, %d false", accepted, rejected)
	}
	if lateBinds < 20 {
		t.Fatalf("only %d keys were bound after their batch's symbol column was built: the run did not test it", lateBinds)
	}
}

// TestCompiledSetEquivalenceRandom fuzzes the set-level disjunction,
// including empty sets and sets whose every term is dead.
func TestCompiledSetEquivalenceRandom(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		set := NewInterestSet("quotes")
		for n := rng.Intn(4); n > 0; n-- {
			set.Add(randomInterest(rng, sc))
		}
		cs := CompileSet(set, sc)
		for probe := 0; probe < 20; probe++ {
			tupleStream := "quotes"
			if rng.Intn(10) == 0 {
				tupleStream = "other"
			}
			tu := randomTuple(rng, tupleStream)
			want := set.Matches(sc, tu)
			if got := cs.Matches(tu); got != want {
				t.Fatalf("trial %d: compiled=%v interpreted=%v\nset=%+v\ntuple=%+v",
					trial, got, want, set, tu)
			}
		}
	}
}

// TestCompiledSetFlags pins what compilation makes of a set: no live
// term for an empty or all-dead set (NeverMatches), an unconstrained term
// filed as matching its whole stream (MatchesAll).
func TestCompiledSetFlags(t *testing.T) {
	sc := compiledTestSchema(t)
	empty := CompileSet(NewInterestSet("quotes"), sc)
	if !empty.NeverMatches() {
		t.Fatal("empty set should never match")
	}
	deadOnly := NewInterestSet("quotes")
	deadOnly.Add(NewInterest("quotes").WithRange("ghost", 0, 1))
	if cs := CompileSet(deadOnly, sc); !cs.NeverMatches() {
		t.Fatal("all-dead set should never match")
	}
	all := NewInterestSet("quotes")
	all.Add(NewInterest("quotes"))
	cs := CompileSet(all, sc)
	if !cs.MatchesAll() || cs.NeverMatches() {
		t.Fatalf("unconstrained set: MatchesAll=%v NeverMatches=%v", cs.MatchesAll(), cs.NeverMatches())
	}
	// MatchesAll still refuses tuples from another stream.
	if cs.Matches(NewTuple("other", 1, time.Unix(0, 0), Int(1))) {
		t.Fatal("MatchesAll set matched a wrong-stream tuple")
	}
}

// TestCompiledMatchZeroAllocs is the regression guard for the hot path:
// a compiled match must not allocate.
func TestCompiledMatchZeroAllocs(t *testing.T) {
	sc := compiledTestSchema(t)
	set := NewInterestSet("quotes")
	set.Add(NewInterest("quotes").WithRange("price", 5, 100).WithKeys("symbol", "ibm", "aapl"))
	set.Add(NewInterest("quotes").WithKeys("venue", "nyse"))
	cs := CompileSet(set, sc)
	tuples := []Tuple{
		NewTuple("quotes", 1, time.Unix(0, 0), String("ibm"), Float(50), Int(10), String("bats")),
		NewTuple("quotes", 2, time.Unix(0, 0), String("goog"), Float(50), Int(10), String("bats")),
		NewTuple("other", 3, time.Unix(0, 0), Int(1)),
	}
	sink := false
	allocs := testing.AllocsPerRun(1000, func() {
		for _, tu := range tuples {
			sink = cs.Matches(tu) || sink
		}
	})
	if allocs != 0 {
		t.Fatalf("CompiledSet.Matches allocated %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestSimplifyMemoizedMatchesBruteForce checks Simplify — pair costs
// computed without building covers and kept across merge rounds —
// against a literal reimplementation of the original O(n^3) loop: same
// merges, in the same order. Beside the small random sets it runs the
// size a busy relay simplifies (40 terms down to the 16 it registers)
// and sets mixing keyed, range-only and unconstrained terms, where a
// field only one side constrains drops out of the cover.
func TestSimplifyMemoizedMatchesBruteForce(t *testing.T) {
	sc := compiledTestSchema(t)
	rng := rand.New(rand.NewSource(11))
	mixed := func(rng *rand.Rand, _ *Schema) Interest {
		in := NewInterest("quotes")
		syms := []string{"ibm", "aapl", "msft", "goog", "amzn", "nvda", "orcl", "sap"}
		switch kind := rng.Intn(10); {
		case kind == 0:
			return in // unconstrained
		case kind < 6: // keyed, half of them with a band as well
			keys := make([]string, 1+rng.Intn(4))
			for i := range keys {
				keys[i] = syms[rng.Intn(len(syms))]
			}
			in = in.WithKeys("symbol", keys...)
			if rng.Intn(2) == 0 {
				return in
			}
		}
		lo := rng.Float64() * 8000
		in = in.WithRange("size", lo, lo+rng.Float64()*2000)
		if rng.Intn(3) == 0 {
			lo := rng.Float64() * 400
			in = in.WithRange("price", lo, lo+rng.Float64()*100)
		}
		return in
	}
	cases := []struct {
		name           string
		gen            func(*rand.Rand, *Schema) Interest
		trials         int
		minN, maxN, to int
	}{
		{"small", randomInterest, 50, 3, 10, 2},
		{"40to16", randomInterest, 8, 40, 40, 16},
		{"mixed", mixed, 30, 5, 40, 4},
		{"mixed to one", mixed, 10, 2, 12, 0},
	}
	for _, tc := range cases {
		for trial := 0; trial < tc.trials; trial++ {
			set := NewInterestSet("quotes")
			for n := tc.minN + rng.Intn(tc.maxN-tc.minN+1); len(set.Terms) < n; {
				set.Add(tc.gen(rng, sc)) // ignores the generator's wrong-stream terms
			}
			want := set.Clone()
			simplifyBruteForce(want, sc, tc.to)
			got := set.Clone()
			got.Simplify(sc, tc.to)
			if fmt.Sprintf("%+v", got.Terms) != fmt.Sprintf("%+v", want.Terms) {
				t.Fatalf("%s trial %d (%d terms): Simplify diverged\ngot  %+v\nwant %+v",
					tc.name, trial, len(set.Terms), got.Terms, want.Terms)
			}
		}
	}
}

// simplifyBruteForce is the pre-memoization Simplify, kept verbatim as
// the behavioral oracle.
func simplifyBruteForce(s *InterestSet, sc *Schema, maxTerms int) {
	if maxTerms < 1 {
		maxTerms = 1
	}
	for len(s.Terms) > maxTerms {
		bestI, bestJ := 0, 1
		bestCost := 1e308
		for i := 0; i < len(s.Terms); i++ {
			for j := i + 1; j < len(s.Terms); j++ {
				cov := Cover(s.Terms[i], s.Terms[j])
				cost := cov.Selectivity(sc) -
					s.Terms[i].Selectivity(sc) - s.Terms[j].Selectivity(sc)
				if cost < bestCost {
					bestCost, bestI, bestJ = cost, i, j
				}
			}
		}
		merged := Cover(s.Terms[bestI], s.Terms[bestJ])
		s.Terms[bestI] = merged
		s.Terms = append(s.Terms[:bestJ], s.Terms[bestJ+1:]...)
	}
}

// NeverMatches reports whether the set can match no tuple at all (no
// live terms).
func (cs *CompiledSet) NeverMatches() bool { return cs.ix.nterms[0] == 0 }

// MatchesAll reports whether the set matches every tuple of its stream:
// one of its terms is unconstrained.
func (cs *CompiledSet) MatchesAll() bool { return len(cs.ix.all) > 0 }
