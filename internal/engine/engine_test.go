package engine

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/stream"
)

func simpleSpec(id string) QuerySpec {
	return QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []FilterSpec{
			{Field: "price", Lo: 0, Hi: 100},
		},
	}
}

// shippedEngine is what both shipped engines offer: the Processor
// contract plus the optional capabilities both happen to have.
type shippedEngine interface {
	Processor
	GroupFeeder
	Adapter
	StateSnapshotter
}

// engineKinds is the table every contract test runs over: the
// production engine and the oracle.
var engineKinds = []struct {
	name string
	mk   func(name string, c *stream.Catalog) shippedEngine
}{
	{"production", func(n string, c *stream.Catalog) shippedEngine { return New(n, c) }},
	{"mini", func(n string, c *stream.Catalog) shippedEngine { return NewMini(n, c) }},
}

type drainable interface{ Drain(time.Duration) bool }

// drainEngine waits for an asynchronous engine to go idle; a synchronous
// one has nothing to wait for.
func drainEngine(t *testing.T, p Processor) {
	t.Helper()
	if d, ok := p.(drainable); ok && !d.Drain(5*time.Second) {
		t.Fatal("drain timed out")
	}
}

// TestEngineContract holds both engines to the Processor contract: every
// case feeds by query (FeedQueryBatch or FeedGroupBatch), the only way
// into an engine.
func TestEngineContract(t *testing.T) {
	type mkFn = func(name string, c *stream.Catalog) shippedEngine
	cases := []struct {
		name string
		run  func(t *testing.T, mk mkFn)
	}{
		{"register and ingest", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			var mu sync.Mutex
			var got []stream.Tuple
			if err := e.Register(simpleSpec("q1"), func(t stream.Tuple) {
				mu.Lock()
				got = append(got, t)
				mu.Unlock()
			}); err != nil {
				t.Fatal(err)
			}
			// Contract point 1: the batch's tuples reach q1 in order; a
			// tuple of a stream the query does not consume is ignored.
			if err := e.FeedQueryBatch("q1", stream.Batch{
				quote(1, "ibm", 50, 1),
				quote(2, "ibm", 500, 1), // filtered
				trade(3, "ibm", 10),     // not subscribed
				quote(4, "ibm", 100, 1), // range bounds are inclusive
			}); err != nil {
				t.Fatal(err)
			}
			drainEngine(t, e)
			mu.Lock()
			defer mu.Unlock()
			if len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 4 {
				t.Fatalf("results = %v", got)
			}
		}},
		{"addressed feed", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			var a, b atomic.Int64
			if err := e.Register(simpleSpec("a"), func(stream.Tuple) { a.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if err := e.Register(simpleSpec("b"), func(stream.Tuple) { b.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if err := e.FeedQueryBatch("a", stream.Batch{quote(1, "ibm", 50, 1)}); err != nil {
				t.Fatal(err)
			}
			if err := e.FeedQueryBatch("a", stream.Batch{quote(2, "ibm", 50, 1), quote(3, "ibm", 50, 1)}); err != nil {
				t.Fatal(err)
			}
			drainEngine(t, e)
			if a.Load() != 3 || b.Load() != 0 {
				t.Fatalf("a=%d b=%d, want 3 and 0: addressed delivery reaches one query", a.Load(), b.Load())
			}
			if err := e.FeedQueryBatch("nope", stream.Batch{quote(5, "ibm", 50, 1)}); err == nil {
				t.Error("FeedQueryBatch to unknown query accepted")
			}
		}},
		{"emit feeds the same engine", func(t *testing.T, mk mkFn) {
			// Two chained fragments on one processor: the first one's
			// emit is a FeedQueryBatch into the engine that is calling it
			// (contract point 6).
			e := mk("test", testCatalog(t))
			defer e.Close()
			var n atomic.Int64
			if err := e.Register(simpleSpec("tail"), func(stream.Tuple) { n.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if err := e.Register(simpleSpec("head"), func(tu stream.Tuple) { _ = e.FeedQueryBatch("tail", stream.Batch{tu}) }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := e.FeedQueryBatch("head", stream.Batch{quote(uint64(i), "ibm", 50, 1)}); err != nil {
					t.Fatal(err)
				}
			}
			// The chain's second hop is enqueued by the first, so one
			// drain can return between the two.
			deadline := time.Now().Add(5 * time.Second)
			for n.Load() != 5 && time.Now().Before(deadline) {
				drainEngine(t, e)
			}
			if n.Load() != 5 {
				t.Fatalf("chain delivered %d of 5", n.Load())
			}
		}},
		{"grouped feed borrows ids and never writes a batch", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			names := []string{"a", "b", "c", "d", "e"}
			var mu sync.Mutex
			got := make(map[string][]uint64)
			for _, id := range names {
				id := id
				if err := e.Register(simpleSpec(id), func(tu stream.Tuple) {
					mu.Lock()
					got[id] = append(got[id], tu.Seq)
					mu.Unlock()
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Contract point 2. One id slice, overwritten after every call:
			// the ids are resolved before the call returns. A fresh batch
			// per call, handed over for good: the engine keeps the slice —
			// and only ever reads it, so the caller may go on reading it
			// while the shards work (the reader below runs beside them;
			// under -race a single engine write to a fed batch fails the
			// test) and finds it unchanged afterwards. "ghost" is not
			// registered and is skipped; the rest are still fed.
			const batches, size = 50, 4
			ids := make([]string, len(names)+1)
			fed := make(chan stream.Batch, batches)
			var all []stream.Batch
			var sum atomic.Uint64
			read := make(chan struct{})
			go func() {
				defer close(read)
				for b := range fed {
					for i := range b {
						sum.Add(b[i].Seq + uint64(len(b[i].Values)) + uint64(b[i].Values[2].AsFloat()))
					}
				}
			}()
			for k := 0; k < batches; k++ {
				copy(ids, names[:2])
				ids[2] = "ghost"
				copy(ids[3:], names[2:])
				b := make(stream.Batch, size)
				for i := range b {
					b[i] = quote(uint64(k*size+i), "ibm", 50, 1)
				}
				e.FeedGroupBatch(ids, b)
				for i := range ids {
					ids[i] = "ghost"
				}
				all = append(all, b)
				fed <- b
			}
			close(fed)
			drainEngine(t, e)
			<-read
			mu.Lock()
			defer mu.Unlock()
			for _, id := range names {
				if len(got[id]) != batches*size {
					t.Fatalf("query %s got %d results, want %d", id, len(got[id]), batches*size)
				}
				for i, seq := range got[id] {
					if seq != uint64(i) {
						t.Fatalf("query %s result %d has seq %d: out of order or a borrowed id slice", id, i, seq)
					}
				}
			}
			if len(got["ghost"]) != 0 {
				t.Fatal("results for an unregistered id")
			}
			for k, b := range all {
				for i := range b {
					if want := quote(uint64(k*size+i), "ibm", 50, 1); !reflect.DeepEqual(b[i], want) {
						t.Fatalf("batch %d tuple %d is %v after the feed, handed over as %v: the engine wrote to it", k, i, b[i], want)
					}
				}
			}
		}},
		{"one batch fed to several queries and feeds", func(t *testing.T, mk mkFn) {
			// Contract point 2, the other half: a handed-over batch may be
			// handed over again — to other queries, by other feed calls, to
			// another engine — and every holder sees what a private copy
			// would have shown it.
			run := func(shared bool) map[string][]uint64 {
				e, other := mk("test", testCatalog(t)), mk("other", testCatalog(t))
				var mu sync.Mutex
				got := make(map[string][]uint64)
				for _, reg := range []struct {
					eng shippedEngine
					id  string
				}{{e, "a"}, {e, "b"}, {e, "c"}, {other, "x"}} {
					id := reg.id
					if err := reg.eng.Register(simpleSpec(id), func(tu stream.Tuple) {
						mu.Lock()
						got[id] = append(got[id], tu.Seq)
						mu.Unlock()
					}); err != nil {
						t.Fatal(err)
					}
				}
				for k := 0; k < 20; k++ {
					b := make(stream.Batch, 8)
					for i := range b {
						b[i] = quote(uint64(k*len(b)+i), "ibm", float64(40+30*(i%4)), 1) // one in four is over the filter's 100
					}
					view := func() stream.Batch {
						if shared {
							return b
						}
						return slices.Clone(b)
					}
					e.FeedGroupBatch([]string{"a", "b"}, view())
					if err := e.FeedQueryBatch("c", view()); err != nil {
						t.Fatal(err)
					}
					if err := other.FeedQueryBatch("x", view()); err != nil {
						t.Fatal(err)
					}
				}
				e.Close() // contract point 4: everything fed is out
				other.Close()
				return got
			}
			if shared, private := run(true), run(false); !reflect.DeepEqual(shared, private) {
				t.Fatalf("one shared batch per round gave %v, private copies gave %v", shared, private)
			}
		}},
		{"grouped feed is processed before unregister and close return", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			var a, b atomic.Int64
			if err := e.Register(simpleSpec("a"), func(stream.Tuple) { a.Add(1) }); err != nil {
				t.Fatal(err)
			}
			if err := e.Register(simpleSpec("b"), func(stream.Tuple) { b.Add(1) }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				e.FeedGroupBatch([]string{"a", "b"}, stream.Batch{quote(uint64(i), "ibm", 50, 1)})
			}
			if _, err := e.Unregister("a"); err != nil { // no drain: contract point 4
				t.Fatal(err)
			}
			if a.Load() != 20 {
				t.Fatalf("a had %d results when Unregister returned, want 20", a.Load())
			}
			e.FeedGroupBatch([]string{"a", "b"}, stream.Batch{quote(20, "ibm", 50, 1)}) // a is skipped
			e.Close()
			if a.Load() != 20 || b.Load() != 21 {
				t.Fatalf("a=%d b=%d when Close returned, want 20 and 21", a.Load(), b.Load())
			}
		}},
		{"emit makes a grouped feed", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			var n atomic.Int64
			for _, id := range []string{"t1", "t2"} {
				if err := e.Register(simpleSpec(id), func(stream.Tuple) { n.Add(1) }); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Register(simpleSpec("head"), func(tu stream.Tuple) {
				e.FeedGroupBatch([]string{"t1", "t2"}, stream.Batch{tu})
			}); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				e.FeedGroupBatch([]string{"head"}, stream.Batch{quote(uint64(i), "ibm", 50, 1)})
			}
			deadline := time.Now().Add(5 * time.Second)
			for n.Load() != 10 && time.Now().Before(deadline) {
				drainEngine(t, e)
			}
			if n.Load() != 10 {
				t.Fatalf("tails got %d of 10", n.Load())
			}
		}},
		{"duplicate register", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			if err := e.Register(simpleSpec("q1"), nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Register(simpleSpec("q1"), nil); err == nil {
				t.Fatal("duplicate register accepted")
			}
		}},
		{"bad spec", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			if err := e.Register(QuerySpec{ID: "q", Source: "nope"}, nil); err == nil {
				t.Fatal("bad spec accepted")
			}
		}},
		{"unregister returns the spec after processing what was ingested", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			var n atomic.Int64
			if err := e.Register(simpleSpec("q1"), func(stream.Tuple) { n.Add(1) }); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if err := e.FeedQueryBatch("q1", stream.Batch{quote(uint64(i), "ibm", 50, 1)}); err != nil {
					t.Fatal(err)
				}
			}
			got, err := e.Unregister("q1") // no drain: contract point 4
			if err != nil {
				t.Fatal(err)
			}
			if n.Load() != 10 {
				t.Fatalf("%d results by the time Unregister returned, want 10", n.Load())
			}
			if got.ID != "q1" || got.Source != "quotes" {
				t.Fatalf("returned spec = %+v", got)
			}
			if err := e.FeedQueryBatch("q1", stream.Batch{quote(10, "ibm", 50, 1)}); err == nil {
				t.Fatal("feed to an unregistered query accepted")
			}
			if _, err := e.Unregister("q1"); err == nil {
				t.Fatal("double unregister accepted")
			}
			// Re-register elsewhere (migration round-trip).
			e2 := mk("other", testCatalog(t))
			defer e2.Close()
			if err := e2.Register(got, nil); err != nil {
				t.Fatalf("re-register migrated spec: %v", err)
			}
		}},
		{"load", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			if e.Load() != 0 {
				t.Error("empty engine has load")
			}
			spec := simpleSpec("q1")
			spec.Load = 10
			if err := e.Register(spec, nil); err != nil {
				t.Fatal(err)
			}
			if got := e.Load(); got < 10 {
				t.Errorf("load = %v, want >= 10", got)
			}
		}},
		{"close twice", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			if err := e.Register(simpleSpec("q1"), nil); err != nil {
				t.Fatal(err)
			}
			e.Close()
			e.Close()
			if err := e.Register(simpleSpec("q2"), nil); err == nil {
				t.Fatal("register after close accepted")
			}
		}},
		{"concurrent ingest", func(t *testing.T, mk mkFn) {
			e := mk("test", testCatalog(t))
			defer e.Close()
			var count atomic.Int64
			if err := e.Register(simpleSpec("q1"), func(stream.Tuple) { count.Add(1) }); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if err := e.FeedQueryBatch("q1", stream.Batch{quote(uint64(w*100+i), "ibm", 50, 1)}); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
			drainEngine(t, e)
			if count.Load() != 200 {
				t.Fatalf("results = %d, want 200", count.Load())
			}
		}},
	}
	for _, kind := range engineKinds {
		for _, c := range cases {
			t.Run(kind.name+"/"+c.name, func(t *testing.T) { c.run(t, kind.mk) })
		}
	}
}

func TestEngineMetricsAndPR(t *testing.T) {
	e := New("test", testCatalog(t))
	defer e.Close()
	if err := e.Register(simpleSpec("q1"), nil); err != nil {
		t.Fatal(err)
	}
	b := make(stream.Batch, 100)
	for i := range b {
		b[i] = quote(uint64(i), "ibm", 50, 1)
	}
	if err := e.FeedQueryBatch("q1", b); err != nil { // one run of 100 tuples
		t.Fatal(err)
	}
	if !e.Drain(time.Second) {
		t.Fatal("drain timed out")
	}
	m, ok := e.Metrics("q1")
	if !ok {
		t.Fatal("metrics missing")
	}
	if m.Results != 100 {
		t.Errorf("results = %d, want 100", m.Results)
	}
	if m.Delay.Count != 100 || m.Processing.Count != 100 {
		t.Errorf("counts = %d/%d", m.Delay.Count, m.Processing.Count)
	}
	// d runs from hand-over to the end of the batch's run and p is that
	// run alone, so PR = d/p >= 1 whatever the batch size; the run's
	// engine time is counted once, not once per tuple.
	if m.PR < 0.999 {
		t.Errorf("PR = %v, want >= 1", m.PR)
	}
	if m.Busy <= 0 || math.Abs(m.Processing.Mean-m.Busy) > 1e-6*m.Busy {
		t.Errorf("busy = %gs, p = %gs: one run must be charged to every tuple as p and once as busy", m.Busy, m.Processing.Mean)
	}
	if _, ok := e.Metrics("missing"); ok {
		t.Error("metrics for unknown query")
	}
}

// TestEngineIdleCostsNothing: an engine that hosts no query has no
// ring and no goroutine, and a query starts exactly the shard it hashes
// onto — an entity's spare processors must cost nothing.
func TestEngineIdleCostsNothing(t *testing.T) {
	cat := testCatalog(t)
	before := runtime.NumGoroutine()
	e := NewShard("idle", cat, 4)
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewShard started %d goroutine(s)", n-before)
	}
	for _, sh := range e.shards {
		if sh.ring != nil || sh.done != nil {
			t.Fatalf("shard %d started before any Register", sh.idx)
		}
	}
	// Every read-side entry point works on an engine with no shard up.
	if !e.Drain(time.Second) {
		t.Fatal("idle engine does not drain")
	}
	if n := e.AdaptOrdering(0); n != 0 {
		t.Fatalf("AdaptOrdering on an idle engine = %d", n)
	}
	if st := e.EngineStats(); len(st.Shards) != 4 || st.Totals().Offered != 0 {
		t.Fatalf("idle EngineStats = %+v, want 4 all-zero rows", st)
	}
	e.FeedGroupBatch([]string{"nobody"}, stream.Batch{quote(1, "ibm", 50, 1)}) // no consumer: skipped
	if !e.Drain(time.Second) {
		t.Fatal("engine with no consumer does not drain")
	}

	if err := e.Register(simpleSpec("q1"), nil); err != nil {
		t.Fatal(err)
	}
	started := 0
	for _, sh := range e.shards {
		if sh.ring != nil {
			started++
			if sh != e.shardFor("q1") {
				t.Fatalf("shard %d started, but q1 hashes onto shard %d", sh.idx, e.shardFor("q1").idx)
			}
		}
	}
	if started != 1 {
		t.Fatalf("%d shards started by one query, want 1", started)
	}
	e.Close() // must not wait for shards that never ran
}
