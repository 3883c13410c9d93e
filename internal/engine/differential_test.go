package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

// The differential suite drives identical workloads through MiniEngine
// (the oracle) and ShardEngine at 1, 2 and 4 shards and asserts
// byte-identical (ordering-normalized) result sets across every
// stateful operator kind. It is the proof obligation of the
// loose-coupling contract: which engine an entity runs must be
// invisible to the federation.

func diffCatalog(t *testing.T) *stream.Catalog {
	t.Helper()
	cat := stream.NewCatalog()
	quotes := stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 8},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 100},
		stream.Field{Name: "size", Type: stream.KindInt, Lo: 0, Hi: 1000},
	)
	trades := stream.MustSchema("trades",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 8},
		stream.Field{Name: "qty", Type: stream.KindInt, Lo: 0, Hi: 500},
	)
	if err := cat.Register(quotes); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register(trades); err != nil {
		t.Fatal(err)
	}
	return cat
}

var diffSymbols = []string{"ibm", "msft", "goog", "amzn", "aapl", "orcl", "nvda", "amd"}

// diffTuples generates a deterministic interleaved workload: quotes
// with an occasional trades tuple, fixed event timestamps. A quote that
// would be priced under 1.5 (one in 67) is priced NaN, +Inf or -Inf
// instead: both engines evaluate one predicate, in which NaN is in no
// range and ±Inf in none of the finite ones here, and the tails behind
// size filters rank and de-duplicate them. Every price filter here
// rejected the prices these replace, so the range-filtered queries see
// the input they saw before — the sum query's snapshot-restore cut
// compares a running sum with a rebuilt one to the last bit, which holds
// for this input and not for every other.
func diffTuples(n int) []stream.Tuple {
	base := time.Unix(1754000000, 0).UTC()
	rng := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	out := make([]stream.Tuple, 0, n)
	for i := 0; i < n; i++ {
		ts := base.Add(time.Duration(i) * time.Millisecond)
		sym := diffSymbols[next()%uint64(len(diffSymbols))]
		if i%7 == 3 {
			out = append(out, stream.NewTuple("trades", uint64(i), ts,
				stream.String(sym), stream.Int(int64(next()%500))))
			continue
		}
		price := float64(next()%10000) / 100
		if price < 1.5 {
			price = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		}
		out = append(out, stream.NewTuple("quotes", uint64(i), ts,
			stream.String(sym), stream.Float(price), stream.Int(int64(next()%1000))))
	}
	return out
}

// diffSpecs covers all five stateful operator kinds, two queries whose
// tails chain two of them, and a time window.
func diffSpecs() []QuerySpec {
	w8 := stream.CountWindow(8)
	w16 := stream.CountWindow(16)
	return []QuerySpec{
		diffChainSpec(),
		diffTimeSpec(),
		{ID: "d-filter", Source: "quotes", Filters: []FilterSpec{
			{Field: "price", Lo: 20, Hi: 80},
			{KeyField: "symbol", Keys: []string{"ibm", "goog", "nvda"}},
		}},
		{ID: "d-agg", Source: "quotes",
			Filters: []FilterSpec{{Field: "price", Lo: 10, Hi: 90}},
			Agg:     &AggSpec{Fn: operator.AggSum, ValueField: "price", GroupField: "symbol", Window: w16}},
		{ID: "d-join", Source: "quotes",
			Join:    &JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol", Window: w8},
			Filters: []FilterSpec{{Field: "l_price", Lo: 5, Hi: 95}}},
		{ID: "d-distinct", Source: "quotes",
			Filters:  []FilterSpec{{Field: "size", Lo: 100, Hi: 900}},
			Distinct: &DistinctSpec{Field: "symbol", Window: w8}},
		{ID: "d-topk", Source: "quotes",
			TopK: &TopKSpec{K: 3, ValueField: "price", KeyField: "symbol", Window: w16}},
	}
}

// diffChainSpec chains distinct → aggregate behind a filter, so the
// second stage of the batch tail consumes the first stage's batch. (A
// spec may not carry both an aggregate and a top-k; the three-stage
// chain is driven directly in TestTailThreeStageChain.)
func diffChainSpec() QuerySpec {
	return QuerySpec{ID: "d-chain", Source: "quotes",
		Filters:  []FilterSpec{{Field: "price", Lo: 5, Hi: 95}},
		Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(3)},
		Agg:      &AggSpec{Fn: operator.AggMax, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(6)}}
}

// diffTimeSpec is distinct → top-k over event time: quotes are 1–2 ms
// apart and some are filtered or suppressed, so a push into the top-k
// window evicts none, one or several tuples.
func diffTimeSpec() QuerySpec {
	return QuerySpec{ID: "d-time", Source: "quotes",
		Filters:  []FilterSpec{{Field: "size", Lo: 0, Hi: 800}},
		Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(2)},
		TopK: &TopKSpec{K: 3, ValueField: "price", KeyField: "symbol",
			Window: stream.TimeWindow(20 * time.Millisecond)}}
}

// resultSink collects rendered result tuples; safe for concurrent emit.
type resultSink struct {
	mu  sync.Mutex
	got []string
}

func (s *resultSink) emit(t stream.Tuple) {
	s.mu.Lock()
	s.got = append(s.got, t.String())
	s.mu.Unlock()
}

func (s *resultSink) sorted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.got))
	copy(out, s.got)
	sort.Strings(out)
	return out
}

// runWorkload feeds the tuples through one engine in same-stream waves,
// each one grouped feed to every query (a query ignores a stream it does
// not consume), draining at every stream switch so cross-stream arrival
// order is deterministic — window joins are order-sensitive — and
// returns the per-query normalized results.
func runWorkload(t *testing.T, eng Processor, specs []QuerySpec, tuples []stream.Tuple) map[string][]string {
	t.Helper()
	sinks := make(map[string]*resultSink, len(specs))
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		sink := &resultSink{}
		sinks[spec.ID] = sink
		ids = append(ids, spec.ID)
		if err := eng.Register(spec, sink.emit); err != nil {
			t.Fatalf("register %s: %v", spec.ID, err)
		}
	}
	feed := GroupFeederOf(eng)
	drain := func() { drainEngine(t, eng) }
	const wave = 256 // well under every queue bound: no engine may drop
	for start := 0; start < len(tuples); {
		end := start + 1
		for end < len(tuples) && end-start < wave && tuples[end].Stream == tuples[start].Stream {
			end++
		}
		feed.FeedGroupBatch(ids, tuples[start:end])
		drain()
		start = end
	}
	drain()
	if dr, ok := eng.(Reporter); ok {
		for _, spec := range specs {
			if n := dr.Dropped(spec.ID); n != 0 {
				t.Fatalf("query %s dropped %d tuples; differential run must be lossless", spec.ID, n)
			}
		}
	}
	out := make(map[string][]string, len(specs))
	for id, sink := range sinks {
		out[id] = sink.sorted()
	}
	return out
}

// ingestWaves hands tuples to one query of a shard engine as one batch
// per wave of 256, so a feed larger than a ring fits in it without a
// drain.
func ingestWaves(t *testing.T, eng *ShardEngine, id string, tuples []stream.Tuple) {
	t.Helper()
	for lo := 0; lo < len(tuples); lo += 256 {
		if err := eng.FeedQueryBatch(id, tuples[lo:min(lo+256, len(tuples))]); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardEngineDifferential(t *testing.T) {
	cat := diffCatalog(t)
	specs := diffSpecs()
	tuples := diffTuples(4000)
	var nan, posInf, negInf int
	for _, tu := range tuples {
		if tu.Stream == "quotes" {
			switch p := tu.Value(1).AsFloat(); {
			case math.IsNaN(p):
				nan++
			case math.IsInf(p, 1):
				posInf++
			case math.IsInf(p, -1):
				negInf++
			}
		}
	}
	if nan < 5 || posInf < 5 || negInf < 5 {
		t.Fatalf("workload has %d NaN, %d +Inf and %d -Inf prices; want several of each", nan, posInf, negInf)
	}

	ref := NewMini("ref", cat)
	defer ref.Close()
	want := runWorkload(t, ref, specs, tuples)
	for _, spec := range specs {
		if len(want[spec.ID]) == 0 {
			t.Fatalf("reference engine produced no results for %s; workload too weak", spec.ID)
		}
	}
	for _, n := range []int{1, 2, 4} {
		name := fmt.Sprintf("ShardEngine/%d", n)
		t.Run(name, func(t *testing.T) {
			shard := NewShard("shard", cat, n)
			defer shard.Close()
			got := runWorkload(t, shard, specs, tuples)
			for _, spec := range specs {
				assertSameResults(t, spec.ID, name, want[spec.ID], got[spec.ID])
			}
		})
	}
}

func assertSameResults(t *testing.T, query, engine string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s/%s: %d results, reference has %d", engine, query, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s/%s: result %d = %q, reference %q", engine, query, i, got[i], want[i])
		}
	}
}

// TestShardEngineSnapshotRestoreMidStream cuts a live shard mid-stream:
// results before the snapshot plus results after restoring into a fresh
// ShardEngine must equal an uninterrupted run on the oracle — the
// engine-level half of migration (PR 5) and checkpoint recovery (PR 7).
func TestShardEngineSnapshotRestoreMidStream(t *testing.T) {
	cat := diffCatalog(t)
	specs := []QuerySpec{
		{ID: "d-agg", Source: "quotes",
			Filters: []FilterSpec{{Field: "price", Lo: 10, Hi: 90}},
			Agg: &AggSpec{Fn: operator.AggSum, ValueField: "price", GroupField: "symbol",
				Window: stream.CountWindow(16)}},
		diffChainSpec(),
		diffTimeSpec(),
	}
	all := diffTuples(3000)
	var quotes []stream.Tuple
	for _, tu := range all {
		if tu.Stream == "quotes" {
			quotes = append(quotes, tu)
		}
	}

	ref := NewMini("ref", cat)
	defer ref.Close()
	want := runWorkload(t, ref, specs, quotes)

	for _, spec := range specs {
		if len(want[spec.ID]) == 0 {
			t.Fatalf("reference engine produced no results for %s; workload too weak", spec.ID)
		}
		for _, n := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%d shards", spec.ID, n), func(t *testing.T) {
				snapshotRestoreMidStream(t, cat, spec, quotes, want[spec.ID], n)
			})
		}
	}
}

func snapshotRestoreMidStream(t *testing.T, cat *stream.Catalog, spec QuerySpec, quotes []stream.Tuple, want []string, nShards int) {
	half := len(quotes) / 2
	first := NewShard("shard-a", cat, nShards)
	defer first.Close()
	sinkA := &resultSink{}
	if err := first.Register(spec, sinkA.emit); err != nil {
		t.Fatal(err)
	}
	ingestWaves(t, first, spec.ID, quotes[:half])
	if !first.Drain(5 * time.Second) {
		t.Fatal("drain before snapshot timed out")
	}
	st, err := first.SnapshotQueryState(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := first.QueryStateBytes(spec.ID); !ok || n <= 0 {
		t.Fatalf("QueryStateBytes = %d, %v; want live state", n, ok)
	}

	second := NewShard("shard-b", cat, nShards)
	defer second.Close()
	sinkB := &resultSink{}
	if err := second.Register(spec, sinkB.emit); err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreQueryState(spec.ID, st); err != nil {
		t.Fatal(err)
	}
	ingestWaves(t, second, spec.ID, quotes[half:])
	if !second.Drain(5 * time.Second) {
		t.Fatal("drain after restore timed out")
	}

	var got []string
	got = append(got, sinkA.sorted()...)
	got = append(got, sinkB.sorted()...)
	sort.Strings(got)
	assertSameResults(t, spec.ID, "ShardEngine(snapshot+restore)", want, got)
}

// TestShardEngineAdaptOrdering exercises the Adapter hook: skewed
// selectivities must trigger a reorder mid-stream, and the batch run —
// which reads the one filter list the reorder permuted — must go on
// producing exactly the oracle's results and feeding each filter's own
// Stats, a batch at a time, in the new order.
func TestShardEngineAdaptOrdering(t *testing.T) {
	cat := diffCatalog(t)
	spec := QuerySpec{ID: "d-adapt", Source: "quotes", Filters: []FilterSpec{
		{Field: "price", Lo: 0, Hi: 100, Cost: 5},            // passes nearly everything, expensive
		{KeyField: "symbol", Keys: []string{"ibm"}, Cost: 1}, // highly selective, cheap
	}}
	eng := NewShard("shard", cat, 1)
	defer eng.Close()
	sink := &resultSink{}
	if err := eng.Register(spec, sink.emit); err != nil {
		t.Fatal(err)
	}
	var quotes []stream.Tuple
	for _, tu := range diffTuples(2000) {
		if tu.Stream == "quotes" {
			quotes = append(quotes, tu)
		}
	}
	feed := func() {
		ingestWaves(t, eng, spec.ID, quotes)
		if !eng.Drain(5 * time.Second) {
			t.Fatal("drain timed out")
		}
	}
	// filterIn reads each filter's consumed count by operator name, on
	// the shard goroutine's query between drains.
	filterIn := func() map[string]int64 {
		eng.mu.RLock()
		defer eng.mu.RUnlock()
		in := make(map[string]int64)
		for _, f := range eng.queries[spec.ID].q.filters {
			in[f.Name()] = f.Stats().In()
		}
		return in
	}
	feed()
	first := filterIn()
	if first["d-adapt/f0"] != int64(len(quotes)) || first["d-adapt/f1"] >= first["d-adapt/f0"] {
		t.Fatalf("filter inputs before the reorder = %v; want f0 to see all %d quotes and f1 its survivors", first, len(quotes))
	}
	if n := eng.AdaptOrdering(0.05); n != 1 {
		t.Fatalf("AdaptOrdering = %d, want 1 (cheap selective filter should move first)", n)
	}
	feed()
	second := filterIn()
	if got := second["d-adapt/f1"] - first["d-adapt/f1"]; got != int64(len(quotes)) {
		t.Fatalf("after the reorder f1 consumed %d tuples, want all %d: the batch run did not follow the new order", got, len(quotes))
	}
	if got := second["d-adapt/f0"] - first["d-adapt/f0"]; got <= 0 || got >= int64(len(quotes))/2 {
		t.Fatalf("after the reorder f0 consumed %d tuples, want only f1's survivors", got)
	}
	ref := NewMini("ref", cat)
	defer ref.Close()
	want := runWorkload(t, ref, []QuerySpec{spec}, append(quotes[:len(quotes):len(quotes)], quotes...))
	assertSameResults(t, spec.ID, "ShardEngine(reordered mid-stream)", want[spec.ID], sink.sorted())
	got, ok := eng.Metrics(spec.ID)
	if !ok || got.Results == 0 || got.Processing.Count == 0 {
		t.Fatalf("Metrics = %+v, %v; want live counters", got, ok)
	}
}

func ExampleShardEngine() {
	cat := stream.NewCatalog()
	_ = cat.Register(stream.MustSchema("s",
		stream.Field{Name: "k", Type: stream.KindString},
		stream.Field{Name: "v", Type: stream.KindFloat}))
	eng := NewShard("example", cat, 2)
	defer eng.Close()
	done := make(chan string, 1)
	_ = eng.Register(QuerySpec{ID: "q", Source: "s",
		Filters: []FilterSpec{{Field: "v", Lo: 10, Hi: 20}}},
		func(t stream.Tuple) { done <- t.String() })
	_ = eng.FeedQueryBatch("q", stream.Batch{stream.NewTuple("s", 1, time.Unix(0, 0), stream.String("a"), stream.Float(15))})
	eng.Drain(time.Second)
	fmt.Println(<-done)
	// Output: s#1[a 15]
}
