package engine

import (
	"sync"
	"testing"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

func statefulSpec(id string) QuerySpec {
	return QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 900},
		},
		Agg: &AggSpec{Fn: operator.AggAvg, ValueField: "price", GroupField: "symbol",
			Window: stream.CountWindow(32)},
	}
}

func feedQuotes(t *testing.T, p Processor, from, n uint64) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := p.FeedQueryBatch("q1", stream.Batch{quote(i, "ibm", float64(10+i%80), 1)}); err != nil {
			t.Fatal(err)
		}
	}
}

// engineStateRoundtrip warms a query on src, snapshots it, restores into
// an identical fresh query on dst, then asserts both emit identical
// results for an identical suffix.
func engineStateRoundtrip(t *testing.T, src, dst shippedEngine) {
	t.Helper()

	var mu sync.Mutex
	results := map[string][]stream.Tuple{}
	register := func(p Processor, key string) {
		if err := p.Register(statefulSpec("q1"), func(tu stream.Tuple) {
			mu.Lock()
			results[key] = append(results[key], tu)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	register(src, "src-warm")
	feedQuotes(t, src, 0, 100)
	drainEngine(t, src)

	if n, ok := src.QueryStateBytes("q1"); !ok || n <= 0 {
		t.Fatalf("QueryStateBytes = %d,%v", n, ok)
	}
	st, err := src.SnapshotQueryState("q1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes() <= 0 {
		t.Fatalf("snapshot bytes = %d", st.Bytes())
	}

	register(dst, "dst")
	if err := dst.RestoreQueryState("q1", st); err != nil {
		t.Fatal(err)
	}

	// Rename the src key so the suffix results are comparable.
	mu.Lock()
	results["src"] = nil
	mu.Unlock()
	// The src emit closure appends to "src-warm"; feed the suffix to
	// both and compare counts + values via fresh bookkeeping below.
	warmLen := len(results["src-warm"])
	feedQuotes(t, src, 1000, 50)
	feedQuotes(t, dst, 1000, 50)
	drainEngine(t, src)
	drainEngine(t, dst)
	mu.Lock()
	defer mu.Unlock()
	srcSuffix := results["src-warm"][warmLen:]
	dstSuffix := results["dst"]
	if len(srcSuffix) != len(dstSuffix) {
		t.Fatalf("suffix result counts diverge: %d vs %d", len(srcSuffix), len(dstSuffix))
	}
	for i := range srcSuffix {
		a, b := srcSuffix[i], dstSuffix[i]
		if a.Seq != b.Seq || a.Value(1).AsFloat() != b.Value(1).AsFloat() {
			t.Fatalf("result %d diverges: seq %d val %v vs seq %d val %v",
				i, a.Seq, a.Value(1).AsFloat(), b.Seq, b.Value(1).AsFloat())
		}
	}
}

// TestEngineStateRoundtrip covers every source × destination pairing:
// state snapshotted on one engine restores into the other — the
// loosely-coupled heterogeneity story.
func TestEngineStateRoundtrip(t *testing.T) {
	for _, from := range engineKinds {
		for _, to := range engineKinds {
			t.Run(from.name+" to "+to.name, func(t *testing.T) {
				src := from.mk("src", testCatalog(t))
				dst := to.mk("dst", testCatalog(t))
				defer src.Close()
				defer dst.Close()
				engineStateRoundtrip(t, src, dst)
			})
		}
	}
}

func TestEngineStateUnknownQuery(t *testing.T) {
	for _, kind := range engineKinds {
		t.Run(kind.name, func(t *testing.T) {
			e := kind.mk("e", testCatalog(t))
			defer e.Close()
			if _, err := e.SnapshotQueryState("nope"); err == nil {
				t.Error("snapshot of unknown query accepted")
			}
			if err := e.RestoreQueryState("nope", nil); err == nil {
				t.Error("restore into unknown query accepted")
			}
			if _, ok := e.QueryStateBytes("nope"); ok {
				t.Error("state bytes for unknown query reported ok")
			}
		})
	}
}
