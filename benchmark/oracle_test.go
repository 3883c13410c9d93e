package main

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"sspd"
	"sspd/internal/engine"
	"sspd/internal/stream"
)

// handPool is 4 batches (256 tuples) whose values follow simple rules, so
// the expected results below can be worked out with plain loops: symbol
// cycles over 5 names, price is a small integer (sums stay exact), volume
// steps through the domain.
func handPool() *pool {
	p := &pool{symbols: []string{"A", "B", "C", "D", "E"}}
	for b := 0; b < 4; b++ {
		batch := make(sspd.Batch, batchSize)
		for j := range batch {
			i := b*batchSize + j
			batch[j] = stream.NewTuple("quotes", 0, time.Time{},
				stream.String(p.symbols[(i*7+i/5)%5]),
				stream.Float(float64((i*37)%101)),
				stream.Int(int64((i*7919)%1000)*1000),
			)
		}
		p.batches = append(p.batches, batch)
	}
	return p
}

type handTuple struct {
	seq    uint64
	symbol string
	price  float64
	volume float64
	values []stream.Value
	batch  int
}

func handTuples(p *pool) []handTuple {
	var out []handTuple
	for b, batch := range p.batches {
		for j, t := range batch {
			out = append(out, handTuple{
				seq: uint64(b*batchSize + j), symbol: t.Values[0].AsString(),
				price: t.Values[1].AsFloat(), volume: t.Values[2].AsFloat(), values: t.Values, batch: b,
			})
		}
	}
	return out
}

// expected accumulates what a query must deliver, the way the sink does.
type expected struct {
	count, sum, paced uint64
	perBatch          [4]uint64
}

func (e *expected) add(t handTuple, values ...stream.Value) {
	e.count++
	e.sum += resultHash(t.seq, valuesHash(values))
	e.perBatch[t.batch]++
	if t.batch == 3 {
		e.paced++
	}
}

func lastN(ts []handTuple, n int) []handTuple {
	if len(ts) > n {
		return ts[len(ts)-n:]
	}
	return ts
}

func TestOracleAgainstHandComputedCases(t *testing.T) {
	p := handPool()
	all := handTuples(p)
	pl := plan{Warm: 1, Sat: 2, Paced: 1}
	pass := func(t handTuple) bool { return t.volume >= 200000 && t.volume <= 700000 }
	band := sspd.FilterSpec{Field: "volume", Lo: 200000, Hi: 700000}
	const window = 8

	specs := []sspd.QuerySpec{
		{ID: "filter", Source: "quotes", Filters: []sspd.FilterSpec{{KeyField: "symbol", Keys: []string{"A", "C"}}, band}},
		{ID: "sum", Source: "quotes", Filters: []sspd.FilterSpec{band},
			Agg: &sspd.AggSpec{Fn: sspd.AggSum, ValueField: "price", GroupField: "symbol", Window: sspd.CountWindow(window)}},
		{ID: "avg", Source: "quotes", Filters: []sspd.FilterSpec{band},
			Agg: &sspd.AggSpec{Fn: sspd.AggAvg, ValueField: "price", GroupField: "symbol", Window: sspd.CountWindow(window)}},
		{ID: "topk", Source: "quotes", Filters: []sspd.FilterSpec{band},
			TopK: &engine.TopKSpec{K: 2, ValueField: "price", KeyField: "symbol", Window: sspd.CountWindow(window)}},
		{ID: "distinct", Source: "quotes", Filters: []sspd.FilterSpec{band},
			Distinct: &engine.DistinctSpec{Field: "symbol", Window: sspd.CountWindow(window)}},
	}
	want := make([]expected, len(specs))

	var passed []handTuple // tuples the band has let through so far
	for _, tu := range all {
		if pass(tu) && (tu.symbol == "A" || tu.symbol == "C") {
			want[0].add(tu, tu.values...)
		}
		if !pass(tu) {
			continue
		}
		passed = append(passed, tu)
		win := lastN(passed, window) // the count window, current tuple included

		// Sliding sum and average of price over the window, by symbol.
		sum, n := 0.0, 0
		for _, w := range win {
			if w.symbol == tu.symbol {
				sum += w.price
				n++
			}
		}
		want[1].add(tu, stream.String(tu.symbol), stream.Float(sum))
		want[2].add(tu, stream.String(tu.symbol), stream.Float(sum/float64(n)))

		// Top 2 symbols by their highest price in the window; a tuple
		// emits its symbol's rank if the symbol is in the top 2.
		best := map[string]float64{}
		for _, w := range win {
			if v, ok := best[w.symbol]; !ok || w.price > v {
				best[w.symbol] = w.price
			}
		}
		keys := make([]string, 0, len(best))
		for k := range best {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if best[keys[i]] != best[keys[j]] {
				return best[keys[i]] > best[keys[j]]
			}
			return keys[i] < keys[j]
		})
		for rank, k := range keys {
			if rank < 2 && k == tu.symbol {
				want[3].add(tu, stream.String(k), stream.Float(best[k]), stream.Int(int64(rank+1)))
			}
		}

		// Distinct: through iff no earlier tuple of the window has the symbol.
		dup := false
		for _, w := range win[:len(win)-1] {
			dup = dup || w.symbol == tu.symbol
		}
		if !dup {
			want[4].add(tu, tu.values...)
		}
	}

	exp, err := buildOracle(p, pl, specs, newCatalog())
	if err != nil {
		t.Fatal(err)
	}
	var cum uint64
	for b := 0; b < 4; b++ {
		for q := range want {
			cum += want[q].perBatch[b]
		}
		if exp.upTo(b) != cum {
			t.Errorf("results expected up to batch %d: oracle %d, by hand %d", b, exp.upTo(b), cum)
		}
	}
	for q, w := range want {
		var upTo uint64
		for b := 0; b < 4; b++ {
			upTo += w.perBatch[b]
			if got := exp.queryUpTo(q, b); got != upTo {
				t.Errorf("%s: results expected up to batch %d: oracle %d, by hand %d", specs[q].ID, b, got, upTo)
			}
		}
		got := exp.PerQuery[q]
		if w.count == 0 || w.count == uint64(len(all)) {
			t.Errorf("%s: the hand case is degenerate (%d results)", specs[q].ID, w.count)
		}
		if got.Count != w.count || got.Sum != w.sum || got.Paced != w.paced {
			t.Errorf("%s: oracle count %d checksum %x paced %d; by hand %d %x %d",
				specs[q].ID, got.Count, got.Sum, got.Paced, w.count, w.sum, w.paced)
		}
	}
	if exp.upTo(-1) != 0 || exp.upTo(3) != cum {
		t.Errorf("upTo: %d, %d; want 0, %d", exp.upTo(-1), exp.upTo(3), cum)
	}
}

func TestOracleFollowsThePoolCycle(t *testing.T) {
	// Twice round a 4-batch pool: the second pass repeats the values with
	// new sequence numbers, so counts double and checksums do not.
	p := handPool()
	spec := []sspd.QuerySpec{{ID: "f", Source: "quotes", Filters: []sspd.FilterSpec{{Field: "volume", Lo: 0, Hi: 499999}}}}
	once, err := buildOracle(p, plan{Warm: 1, Sat: 2, Paced: 1}, spec, newCatalog())
	if err != nil {
		t.Fatal(err)
	}
	twice, err := buildOracle(p, plan{Warm: 1, Sat: 2, Paced: 5}, spec, newCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if twice.PerQuery[0].Count != 2*once.PerQuery[0].Count {
		t.Errorf("counts %d and %d, want the second to be double", once.PerQuery[0].Count, twice.PerQuery[0].Count)
	}
	if twice.PerQuery[0].Sum == 2*once.PerQuery[0].Sum {
		t.Error("checksum ignores the sequence number")
	}
}

func TestResultHashIsAllocationFree(t *testing.T) {
	tu := stream.NewTuple("quotes", 42, time.Time{}, stream.String("S0007"), stream.Float(12.5), stream.Int(99))
	var sink uint64
	if n := testing.AllocsPerRun(100, func() { sink += resultHash(tu.Seq, valuesHash(tu.Values)) }); n != 0 {
		t.Errorf("hashing a result allocates %v times", n)
	}
	other := tu
	other.Seq = 43
	if resultHash(tu.Seq, valuesHash(tu.Values)) == resultHash(other.Seq, valuesHash(other.Values)) {
		t.Error("hash ignores the sequence number")
	}
	_ = fmt.Sprint(sink)
}
