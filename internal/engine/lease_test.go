package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// TestLeasedFeedResultsOwnTheirValues: nothing a query emits from a
// leased feed shares Values with the lease. Per tail kind the last stage
// seals its results — a distinct too, which would otherwise emit its
// input rows — and a query that does not seal, stateless filters or a
// join, is fed an owned copy. Once the engine has run a batch the lease's
// rows are overwritten, as the arena's next batch would overwrite them,
// and every result still reads what it read before, and no later result
// is built from an overwritten row. Both engines, fed a
// list of one query and of two; the lease comes back with exactly the
// caller's reference.
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
	for _, kind := range engineKinds {
		for _, c := range specs {
			t.Run(kind.name+"/"+c.name, func(t *testing.T) {
				e := kind.mk("e", testCatalog(t))
				defer e.Close()
				var mu sync.Mutex
				var got []stream.Tuple
				ids := []string{"a", "b"}
				for _, id := range ids {
					spec := c.spec
					spec.ID, spec.Source = id, "quotes"
					if err := e.Register(spec, func(tu stream.Tuple) {
						mu.Lock()
						got = append(got, tu)
						mu.Unlock()
					}); err != nil {
						t.Fatal(err)
					}
				}
				// A join's partners, before and after every quote batch: the
				// later ones meet the quotes its window kept.
				var trades stream.Batch
				for i := 0; i < 10; i++ {
					trades = append(trades, trade(uint64(i), fmt.Sprintf("S%04d", i), 1))
				}
				feedTrades := func() {
					for _, id := range ids {
						if err := e.FeedQueryBatch(id, trades); err != nil {
							t.Fatal(err)
						}
					}
					drainEngine(t, e)
				}
				feedTrades()
				render := func() []string {
					mu.Lock()
					defer mu.Unlock()
					out := make([]string, len(got))
					for i, tu := range got {
						out[i] = tu.String()
					}
					return out
				}
				for i, b := range tailBatches(6) {
					l := stream.LeaseCopy(b)
					e.FeedGroupLease(ids[:1+i%2], l.Batch(), l)
					drainEngine(t, e)
					before := render()
					for _, row := range l.Batch() {
						for j := range row.Values {
							row.Values[j] = stream.String("overwritten")
						}
					}
					if after := render(); !slices.Equal(after, before) {
						t.Fatalf("batch %d: overwriting the lease changed the results", i)
					}
					l.Release() // the caller's: panics if the engine released one it never took
					feedTrades()
					if r := slices.IndexFunc(render(), func(s string) bool { return strings.Contains(s, "overwritten") }); r >= 0 {
						t.Fatalf("batch %d: result %s was built from a row a query kept from the lease", i, render()[r])
					}
				}
				if len(got) == 0 {
					t.Fatal("no results: the test checked nothing")
				}
			})
		}
	}
}
