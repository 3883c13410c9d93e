package engine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// TestLeasedFeedResultsOwnTheirValues is the lent-result contract test
// (Processor point 6): a result is lent to emit, and the copy emit keeps
// — a Clone — owns its Values. Both engines, on lent feeds
// (GroupFeeder.FeedGroupLent), per query kind: what emit reads inside
// the call equals what Compile's row path emits for the same rows,
// while the caller overwrites each batch as soon as the feed returns, or
// releases the lease it lent, and feeds the next one without waiting;
// and a Clone taken inside emit still reads the same after every later
// batch. A lease released before its rows' emits return, or a slab
// reused under a result still being read, changes what emit reads
// (under -tags arenapoison, to "\x00released"); a lent batch the engine
// did not copy reads the caller's overwrite. A join, which keeps rows,
// meets its partners after every quote batch. Fed a list of one query
// and of two.
func TestLeasedFeedResultsOwnTheirValues(t *testing.T) {
	window := stream.CountWindow(64)
	specs := []struct {
		name string
		spec QuerySpec
	}{
		{"filter", QuerySpec{Filters: []FilterSpec{{Field: "price", Lo: 0, Hi: 500}}}},
		{"distinct", QuerySpec{Distinct: &DistinctSpec{Field: "symbol", Window: window}}},
		{"aggregate", QuerySpec{Agg: &AggSpec{Fn: operator.AggMax, ValueField: "price", GroupField: "symbol", Window: window}}},
		{"top-k", QuerySpec{TopK: &TopKSpec{K: 3, ValueField: "price", KeyField: "symbol", Window: window}}},
		{"distinct → top-k", QuerySpec{Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(4)},
			TopK: &TopKSpec{K: 3, ValueField: "price", KeyField: "symbol", Window: window}}},
		{"join", QuerySpec{Join: &JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol", Window: window}}},
	}
	var trades stream.Batch
	for i := 0; i < 10; i++ {
		trades = append(trades, trade(uint64(i), fmt.Sprintf("S%04d", i), 1))
	}
	batches := tailBatches(9)
	for _, kind := range engineKinds {
		for _, c := range specs {
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				e := kind.mk("e", testCatalog(t))
				defer e.Close()
				ids := []string{"a", "b"}
				var mu sync.Mutex
				read := map[string][]string{}       // rendered inside emit
				kept := map[string][]stream.Tuple{} // cloned inside emit
				want := map[string][]string{}       // the row path's results
				refs := map[string]*Query{}
				for _, id := range ids {
					spec := c.spec
					spec.ID, spec.Source = id, "quotes"
					if err := e.Register(spec, func(tu stream.Tuple) {
						mu.Lock()
						read[id] = append(read[id], tu.String())
						kept[id] = append(kept[id], tu.Clone())
						mu.Unlock()
					}); err != nil {
						t.Fatal(err)
					}
					ref, err := Compile(spec, testCatalog(t), func(b stream.Batch) {
						for _, tu := range b {
							want[id] = append(want[id], tu.String())
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					refs[id] = ref
				}
				// A join's partners, before and after every quote batch: the
				// later ones meet the quotes its window kept.
				feedTrades := func() {
					for _, id := range ids {
						if err := e.FeedQueryBatch(id, trades); err != nil {
							t.Fatal(err)
						}
						for _, tu := range trades {
							refs[id].Feed("trades", tu)
						}
					}
				}
				feedTrades()
				for i, b := range batches {
					fed := ids[:1+i%2]
					for _, id := range fed {
						for _, tu := range b {
							refs[id].Feed("quotes", tu)
						}
					}
					if i%3 == 2 {
						// Rows already in a lease, as a frame decoded into one:
						// the caller releases its reference as soon as the feed
						// returns, before the shards have run them.
						l := stream.LeaseCopy(b)
						e.FeedGroupLent(fed, l.Batch(), l)
						l.Release() // panics if the engine released one it never took
					} else {
						lent := b.Compact(nil)
						e.FeedGroupLent(fed, lent, nil)
						// Lent for the call: the caller overwrites it at once,
						// before the shards have run it.
						for _, row := range lent {
							for j := range row.Values {
								row.Values[j] = stream.String("overwritten")
							}
						}
					}
					feedTrades()
				}
				drainEngine(t, e)
				mu.Lock()
				defer mu.Unlock()
				total := 0
				for _, id := range ids {
					total += len(want[id])
					if !slices.Equal(read[id], want[id]) {
						i := 0
						for i < min(len(read[id]), len(want[id])) && read[id][i] == want[id][i] {
							i++
						}
						t.Fatalf("query %s: emit read %d results, the row path %d; first difference at %d: %q vs %q",
							id, len(read[id]), len(want[id]), i, at(read[id], i), at(want[id], i))
					}
					for i, tu := range kept[id] {
						if s := tu.String(); s != read[id][i] {
							t.Fatalf("query %s: result %d cloned inside emit reads %s after later batches, %s inside", id, i, s, read[id][i])
						}
					}
				}
				if total == 0 {
					t.Fatal("no results: the test checked nothing")
				}
			})
		}
	}
}

// at is s[i], or "" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return ""
}
