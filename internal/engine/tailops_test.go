package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sspd/internal/operator"
	"sspd/internal/stream"
)

func TestCompileDistinctQuery(t *testing.T) {
	c := testCatalog(t)
	var results []stream.Tuple
	q, err := Compile(QuerySpec{
		ID:     "qd",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000},
		},
		Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(10)},
	}, c, func(b stream.Batch) { results = append(results, b.Compact(nil)...) })
	if err != nil {
		t.Fatal(err)
	}
	q.Feed("quotes", quote(1, "ibm", 10, 1))
	q.Feed("quotes", quote(2, "ibm", 20, 1)) // duplicate symbol
	q.Feed("quotes", quote(3, "msft", 30, 1))
	if len(results) != 2 {
		t.Fatalf("distinct results = %d, want 2", len(results))
	}
}

func TestCompileTopKQuery(t *testing.T) {
	c := testCatalog(t)
	var last stream.Tuple
	q, err := Compile(QuerySpec{
		ID:     "qt",
		Source: "quotes",
		TopK:   &TopKSpec{K: 1, ValueField: "price", KeyField: "symbol", Window: stream.CountWindow(10)},
	}, c, func(b stream.Batch) { last = b[len(b)-1].Clone() })
	if err != nil {
		t.Fatal(err)
	}
	q.Feed("quotes", quote(1, "ibm", 10, 1))
	q.Feed("quotes", quote(2, "msft", 99, 1))
	if last.Values[0].AsString() != "msft" || last.Values[2].AsInt() != 1 {
		t.Fatalf("top1 = %v", last)
	}
	// Lower price does not emit (not in top-1).
	before := last
	q.Feed("quotes", quote(3, "goog", 5, 1))
	if last.Seq != before.Seq {
		t.Fatal("out-of-topk tuple emitted")
	}
}

func TestCompileTopKAfterJoinResolvesPrefixes(t *testing.T) {
	c := testCatalog(t)
	q, err := Compile(QuerySpec{
		ID:     "qjt",
		Source: "quotes",
		Join: &JoinSpec{
			Stream: "trades", LeftKey: "symbol", RightKey: "symbol",
			Window: stream.CountWindow(10),
		},
		// Post-join the fields are l_price / l_symbol; the compiler
		// resolves the bare names.
		TopK: &TopKSpec{K: 2, ValueField: "price", KeyField: "symbol", Window: stream.CountWindow(10)},
	}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	q.Feed("quotes", quote(1, "ibm", 10, 1))
	if n := q.Feed("trades", trade(2, "ibm", 5)); n != 1 {
		t.Fatalf("join+topk results = %d", n)
	}
}

func TestTailSpecValidation(t *testing.T) {
	bad := []QuerySpec{
		{ID: "q", Source: "s", Distinct: &DistinctSpec{}},
		{ID: "q", Source: "s", TopK: &TopKSpec{K: 0, ValueField: "v", KeyField: "k"}},
		{ID: "q", Source: "s", TopK: &TopKSpec{K: 1, KeyField: "k"}},
		{ID: "q", Source: "s", TopK: &TopKSpec{K: 1, ValueField: "v"}},
		{ID: "q", Source: "s",
			Agg:  &AggSpec{Fn: operator.AggCount},
			TopK: &TopKSpec{K: 1, ValueField: "v", KeyField: "k"}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad tail spec %d accepted", i)
		}
	}
	// Compile-time resolution failures.
	c := testCatalog(t)
	if _, err := Compile(QuerySpec{
		ID: "q", Source: "quotes",
		Distinct: &DistinctSpec{Field: "nope"},
	}, c, nil); err == nil {
		t.Error("distinct on missing field compiled")
	}
	if _, err := Compile(QuerySpec{
		ID: "q", Source: "quotes",
		TopK: &TopKSpec{K: 1, ValueField: "nope", KeyField: "symbol"},
	}, c, nil); err == nil {
		t.Error("topk on missing field compiled")
	}
}

func TestTailLoadEstimates(t *testing.T) {
	spec := QuerySpec{
		ID: "q", Source: "s",
		Distinct: &DistinctSpec{Field: "k"},                         // 1
		TopK:     &TopKSpec{K: 1, ValueField: "v", KeyField: "k"},   // 2
		Filters:  []FilterSpec{{Field: "f", Lo: 0, Hi: 1, Cost: 3}}, // 3
	}
	if got := spec.EstimatedLoad(); got != 6 {
		t.Errorf("load = %v, want 6", got)
	}
}

func TestReorderWithMultipleTailOps(t *testing.T) {
	c := testCatalog(t)
	q, err := Compile(QuerySpec{
		ID:     "q",
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 100, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 10, Cost: 5},
		},
		Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(4)},
		Agg:      &AggSpec{Fn: operator.AggCount, Window: stream.CountWindow(4)},
	}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(q.FilterCosts()); got != 2 {
		t.Fatalf("filter count with 2 tail ops = %d", got)
	}
	if err := q.ReorderFilters([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	// Tail ops survive the reorder in place: feeding still aggregates.
	if n := q.Feed("quotes", quote(1, "ibm", 50, 5)); n != 1 {
		t.Fatalf("results after reorder = %d", n)
	}
	ops := q.Operators()
	if ops[len(ops)-1].Name() != "q/agg" || ops[len(ops)-2].Name() != "q/distinct" {
		t.Fatalf("tail order broken: %s, %s",
			ops[len(ops)-2].Name(), ops[len(ops)-1].Name())
	}
}

// tailBatches is a pool of 64-tuple quote batches over 100 zipf-popular
// symbols with random-walking prices — the shape the end-to-end
// benchmark's ticker feeds the tail.
func tailBatches(n int) []stream.Batch {
	rng := rand.New(rand.NewSource(16))
	zipf := rand.NewZipf(rng, 1.2, 1, 99)
	price := make([]float64, 100)
	for i := range price {
		price[i] = 100 + rng.Float64()*800
	}
	out := make([]stream.Batch, n)
	seq := uint64(0)
	for b := range out {
		for j := 0; j < 64; j++ {
			i := zipf.Uint64()
			price[i] += (rng.Float64() - 0.5) * 10
			seq++
			out[b] = append(out[b], quote(seq, fmt.Sprintf("S%04d", i), price[i], int64(rng.Intn(1e6))))
		}
	}
	return out
}

// compileTail compiles spec, as Register does, emitting into sink.
func compileTail(t *testing.T, spec QuerySpec, sink func(stream.Batch)) *Query {
	t.Helper()
	q, err := Compile(spec, testCatalog(t), sink)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestTailThreeStageChain drives distinct → aggregate → top-k — one
// stage more than a spec can ask for, so the third stage lands back in
// the first buffer — a batch at a time, against the same chain fed a
// row at a time.
func TestTailThreeStageChain(t *testing.T) {
	spec := QuerySpec{ID: "q", Source: "quotes",
		Filters:  []FilterSpec{{Field: "volume", Lo: 0, Hi: 8e5}},
		Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(2)},
		Agg:      &AggSpec{Fn: operator.AggMax, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(32)}}
	var batched, rowwise []string
	build := func(got *[]string) *Query {
		q := compileTail(t, spec, func(b stream.Batch) {
			for _, tu := range b {
				*got = append(*got, tu.String())
			}
		})
		// The aggregate's (group, value) sit where quotes has (symbol, price).
		src, _ := testCatalog(t).Lookup("quotes")
		tk, err := operator.NewTopK("q/topk", src, 3, "price", "symbol", stream.CountWindow(16), 1)
		if err != nil {
			t.Fatal(err)
		}
		q.tail = append(q.tail, tk)
		return q
	}
	bq, rq := build(&batched), build(&rowwise)
	cb := stream.NewColBatch()
	for _, b := range tailBatches(40) {
		cb.Reset(b)
		n := bq.runBatch(cb)
		for _, tu := range b {
			n -= rq.Feed("quotes", tu)
		}
		if n != 0 {
			t.Fatalf("result counts differ by %d", n)
		}
	}
	if len(batched) < 100 || !slices.Equal(batched, rowwise) {
		t.Fatalf("batch tail emitted %d results, row-at-a-time chain %d, or they differ", len(batched), len(rowwise))
	}
}

// TestTailSlabPoisonedAfterEmit: an aggregate's or top-k's batch run
// lends its results from a slab it reuses, and under -tags arenapoison
// the slab reads "\x00released" as soon as emit returns, so a receiver
// that keeps a result without Clone fails loudly instead of reading a
// later batch's values. What emit reads inside the call is what the row
// path emits.
func TestTailSlabPoisonedAfterEmit(t *testing.T) {
	probe := []stream.Value{stream.Int(1)}
	stream.Poison(probe)
	if probe[0].AsString() != "\x00released" {
		t.Skip("slabs are poisoned only under -tags arenapoison")
	}
	window := stream.CountWindow(16)
	for name, spec := range map[string]QuerySpec{
		"aggregate": {Agg: &AggSpec{Fn: operator.AggMax, ValueField: "price", GroupField: "symbol", Window: window}},
		"top-k":     {TopK: &TopKSpec{K: 3, ValueField: "price", KeyField: "symbol", Window: window}},
	} {
		t.Run(name, func(t *testing.T) {
			spec.ID, spec.Source = "q", "quotes"
			var kept stream.Batch // results kept without Clone
			var inside, want []string
			q := compileTail(t, spec, func(b stream.Batch) {
				kept = append(kept, b...)
				for _, tu := range b {
					inside = append(inside, tu.String())
				}
			})
			ref := compileTail(t, spec, func(b stream.Batch) {
				for _, tu := range b {
					want = append(want, tu.String())
				}
			})
			cb := stream.NewColBatch()
			for _, b := range tailBatches(4) {
				cb.Reset(b)
				q.runBatch(cb)
				for _, tu := range b {
					ref.Feed("quotes", tu)
				}
			}
			if len(want) == 0 || !slices.Equal(inside, want) {
				t.Fatalf("emit read %d results, the row path emitted %d, or they differ", len(inside), len(want))
			}
			for _, tu := range kept {
				for _, v := range tu.Values {
					if v.AsString() != "\x00released" {
						t.Fatalf("result %v kept past its emit reads %v, want its slab poisoned", tu, v)
					}
				}
			}
		})
	}
}

// churnBatches is a pool of 64-tuple quote batches whose symbols cycle
// through 200 keys, so in a window of fewer rows every group and key
// leaves before it comes back: each row takes its state cell from a free
// list the evictions just filled.
func churnBatches(n int) []stream.Batch {
	out := make([]stream.Batch, n)
	seq := uint64(0)
	for b := range out {
		for j := 0; j < 64; j++ {
			seq++
			out[b] = append(out[b], quote(seq, fmt.Sprintf("S%04d", seq%200), float64(seq%997), int64(seq*7919%1e6)))
		}
	}
	return out
}

// TestTailAllocsPerBatch is the allocation gate of the shard engine's
// tail path: once buffers, maps, free lists and result slabs have grown,
// running a 64-tuple batch through filter kernels and tail allocates
// nothing — for distinct however many rows survive the filter, and for
// an aggregate or a top-k, whose results are lent from a slab they reuse
// — over count and time windows, the 1024-row sum stateful_tail runs,
// and groups that leave the window and come back.
func TestTailAllocsPerBatch(t *testing.T) {
	half := []FilterSpec{{Field: "volume", Lo: 0, Hi: 5e5}}
	churn := churnBatches(128)
	cases := []struct {
		name string
		spec QuerySpec
		in   []stream.Batch // nil: tailBatches
	}{
		{"distinct/all rows", QuerySpec{
			Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(256)}}, nil},
		{"distinct/half the rows", QuerySpec{Filters: half,
			Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(256)}}, nil},
		{"sum", QuerySpec{Filters: half,
			Agg: &AggSpec{Fn: operator.AggSum, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(64)}}, nil},
		{"sum/1024 rows", QuerySpec{Filters: half,
			Agg: &AggSpec{Fn: operator.AggSum, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(1024)}}, nil},
		{"avg/time window", QuerySpec{Filters: half,
			Agg: &AggSpec{Fn: operator.AggAvg, ValueField: "price", GroupField: "symbol", Window: stream.TimeWindow(48 * time.Second)}}, nil},
		{"min", QuerySpec{Filters: half,
			Agg: &AggSpec{Fn: operator.AggMin, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(64)}}, nil},
		{"min/groups leave and return", QuerySpec{
			Agg: &AggSpec{Fn: operator.AggMin, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(64)}}, churn},
		{"top-k", QuerySpec{Filters: half,
			TopK: &TopKSpec{K: 5, ValueField: "price", KeyField: "symbol", Window: stream.CountWindow(32)}}, nil},
		{"distinct → top-k", QuerySpec{Filters: half,
			Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(4)},
			TopK:     &TopKSpec{K: 5, ValueField: "price", KeyField: "symbol", Window: stream.CountWindow(32)}}, nil},
		{"distinct → top-k/keys leave and return", QuerySpec{
			Distinct: &DistinctSpec{Field: "symbol", Window: stream.CountWindow(128)},
			TopK:     &TopKSpec{K: 5, ValueField: "price", KeyField: "symbol", Window: stream.CountWindow(32)}}, churn},
	}
	pool := tailBatches(128)
	for _, c := range cases {
		c.spec.ID, c.spec.Source = "q", "quotes"
		in := c.in
		if in == nil {
			in = pool
		}
		results := 0
		q := compileTail(t, c.spec, func(b stream.Batch) { results += len(b) })
		cb, next := stream.NewColBatch(), 0
		run := func() {
			// Each lap of the pool runs one lap later in event time, so a
			// time window slides on as over a live stream.
			b, lap := in[next%len(in)], int64(next/len(in))
			for i := range b {
				b[i].Ts = time.Unix(int64(b[i].Seq)+lap*int64(64*len(in)), 0)
			}
			cb.Reset(b)
			next++
			q.runBatch(cb)
		}
		for range in {
			run() // warm-up: one pass over every key the pool holds
		}
		results = 0
		if got := testing.AllocsPerRun(len(in), run); got != 0 {
			t.Errorf("%s: %.2f allocations per batch, want 0", c.name, got)
		}
		if results == 0 {
			t.Errorf("%s: no results: gate measured nothing", c.name)
		}
	}
}
