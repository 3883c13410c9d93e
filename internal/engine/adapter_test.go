package engine

import (
	"testing"

	"sspd/internal/stream"
)

// shiftSpec has two filters whose useful order flips with the workload.
func shiftSpec(id string) QuerySpec {
	return QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1}, // useless
			{Field: "volume", Lo: 0, Hi: 100, Cost: 1}, // selective
		},
	}
}

// TestAdaptOrderingAppliedSemantics pins the cross-engine contract: a
// first sweep on a misordered query applies exactly one reorder, and an
// immediately repeated sweep applies zero — on both engines, so entity-
// and federation-level sweeps sum comparable numbers.
func TestAdaptOrderingAppliedSemantics(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.name, func(t *testing.T) {
			e := kind.mk("e", testCatalog(t))
			defer e.Close()
			if err := e.Register(shiftSpec("q"), nil); err != nil {
				t.Fatal(err)
			}
			// A workload where the second filter is the selective one.
			for i := 0; i < 300; i++ {
				if err := e.FeedQueryBatch("q", stream.Batch{quote(uint64(i), "ibm", 500, 500)}); err != nil {
					t.Fatal(err)
				}
			}
			drainEngine(t, e)
			if n := e.AdaptOrdering(0); n != 1 {
				t.Fatalf("first sweep applied %d, want 1", n)
			}
			if n := e.AdaptOrdering(0); n != 0 {
				t.Fatalf("second sweep applied %d, want 0 (already optimal)", n)
			}
		})
	}
}

func TestAdaptOrderingNoFilters(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.name, func(t *testing.T) {
			e := kind.mk("e", testCatalog(t))
			defer e.Close()
			if err := e.Register(QuerySpec{ID: "q", Source: "quotes"}, nil); err != nil {
				t.Fatal(err)
			}
			if n := e.AdaptOrdering(0); n != 0 {
				t.Fatalf("filterless query adapted: %d", n)
			}
		})
	}
}
