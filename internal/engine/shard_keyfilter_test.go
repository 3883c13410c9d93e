package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sspd/internal/stream"
)

// keyFilterSymbols is the key domain of the keyed-query tests: 100
// symbols, like the benchmark's quotes.
func keyFilterSymbols() []string {
	syms := make([]string, 100)
	for i := range syms {
		syms[i] = fmt.Sprintf("S%03d", i)
	}
	return syms
}

// keyedSpec is one keyed query in the shape of the benchmark's
// many_queries: a set of 2–7 symbols, then a 40 % volume band.
func keyedSpec(rng *rand.Rand, id string, syms []string) QuerySpec {
	keys := make([]string, 2+rng.Intn(6))
	for i := range keys {
		keys[i] = syms[rng.Intn(len(syms))]
	}
	lo := rng.Float64() * 6e5
	return QuerySpec{ID: id, Source: "quotes", Filters: []FilterSpec{
		{KeyField: "symbol", Keys: keys, Cost: 1},
		{Field: "volume", Lo: lo, Hi: lo + 4e5, Cost: 1},
	}}
}

func keyedBatches(rng *rand.Rand, syms []string, n, size int) []stream.Batch {
	pool := make([]stream.Batch, n)
	for k := range pool {
		b := make(stream.Batch, size)
		for i := range b {
			b[i] = quote(uint64(k*size+i), syms[rng.Intn(len(syms))], rng.Float64()*1000, int64(rng.Intn(1e6)))
		}
		pool[k] = b
	}
	return pool
}

// TestShardEngineGroupedFeedAllocFree is the allocation gate of the
// grouped feed: once a list has been resolved, feeding it — the call,
// the ring, and the shards' runs of every keyed filter it names —
// allocates nothing.
func TestShardEngineGroupedFeedAllocFree(t *testing.T) {
	eng := NewShard("alloc", testCatalog(t), 2)
	defer eng.Close()
	rng := rand.New(rand.NewSource(3))
	syms := keyFilterSymbols()
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("q%d", i)
		if err := eng.RegisterBatch(keyedSpec(rng, ids[i], syms), nil); err != nil {
			t.Fatal(err)
		}
	}
	b := keyedBatches(rng, syms, 1, 64)[0]
	drain := func() {
		if !eng.Drain(10 * time.Second) {
			t.Fatal("drain timed out")
		}
	}
	// Until a query's delay and processing histograms have filled their
	// 4096-sample reservoirs, their growth shows up as a fraction of an
	// allocation per feed.
	for i := 0; i < 4200; i++ {
		eng.FeedGroupBatch(ids, b)
		if i%256 == 0 {
			drain()
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		eng.FeedGroupBatch(ids, b)
		drain()
	}); got != 0 {
		t.Fatalf("a steady-state grouped feed of %d keyed queries allocates %v times, want 0", len(ids), got)
	}
	if eng.TotalDropped() != 0 {
		t.Fatalf("%d tuples dropped: the gate measured shed batches", eng.TotalDropped())
	}
}

// TestShardEngineGroupedFeedFollowsListAndRegistrations: a resolved list
// is reused only while it holds the same ids and no registration has
// changed — an id list the caller rewrites in place, and a query
// registered after its id was first fed (and skipped), are both fed by
// the very next call.
func TestShardEngineGroupedFeedFollowsListAndRegistrations(t *testing.T) {
	eng := NewShard("groups", testCatalog(t), 2)
	defer eng.Close()
	var mu sync.Mutex
	got := make(map[string]int)
	register := func(id string) {
		t.Helper()
		if err := eng.Register(simpleSpec(id), func(stream.Tuple) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	register("a")
	register("b")
	register("c")
	feed := func(ids []string) {
		t.Helper()
		eng.FeedGroupBatch(ids, stream.Batch{quote(1, "ibm", 50, 1)})
		drainEngine(t, eng)
	}
	ids := []string{"a", "b", "d"}
	feed(ids) // d is not registered: skipped
	feed(ids)
	ids[1] = "c" // the same list, rewritten in place
	feed(ids)
	register("d")
	feed(ids)
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"a": 4, "b": 2, "c": 2, "d": 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("results per query %v, want %v", got, want)
	}
}

// TestShardEngineGroupedFeedRacesRegistrations: producers feeding their
// own and shared id lists while queries register and unregister — every
// registration empties the resolved lists under them — stay race-clean,
// and once the churn stops the next feed of a list reaches every query it
// names.
func TestShardEngineGroupedFeedRacesRegistrations(t *testing.T) {
	eng := NewShard("race", testCatalog(t), 2)
	defer eng.Close()
	var mu sync.Mutex
	got := make(map[string]int)
	register := func(id string) error {
		return eng.Register(simpleSpec(id), func(stream.Tuple) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := register(id); err != nil {
			t.Fatal(err)
		}
	}
	lists := [][]string{{"a", "b"}, {"b", "c", "x"}, {"a", "x"}}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(ids []string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng.FeedGroupBatch(ids, stream.Batch{quote(uint64(i), "ibm", 50, 1)})
			}
		}(lists[p%len(lists)])
	}
	for i := 0; i < 20; i++ {
		if err := register("x"); err != nil {
			t.Error(err)
			break
		}
		if _, err := eng.Unregister("x"); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if err := register("x"); err != nil {
		t.Fatal(err)
	}
	drainEngine(t, eng)
	mu.Lock()
	clear(got)
	mu.Unlock()
	for _, ids := range lists {
		eng.FeedGroupBatch(ids, stream.Batch{quote(1, "ibm", 50, 1)})
	}
	drainEngine(t, eng)
	mu.Lock()
	defer mu.Unlock()
	if want := map[string]int{"a": 2, "b": 2, "c": 1, "x": 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("results of one feed per list after the churn %v, want %v", got, want)
	}
}

// BenchmarkShardKeyFilters prices the filter path against the number of
// keyed queries one shard serves: every 64-tuple batch goes to all of
// them, each a key set over 100 symbols and a volume band. It reports
// engine wall time per input tuple; the per-query cost is the slope.
func BenchmarkShardKeyFilters(b *testing.B) {
	for _, n := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("queries=%d", n), func(b *testing.B) {
			eng := NewShard("bench", testCatalog(b), 1)
			defer eng.Close()
			rng := rand.New(rand.NewSource(1))
			syms := keyFilterSymbols()
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("q%d", i)
				if err := eng.RegisterBatch(keyedSpec(rng, ids[i], syms), nil); err != nil {
					b.Fatal(err)
				}
			}
			pool := keyedBatches(rng, syms, 64, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.FeedGroupBatch(ids, pool[i%len(pool)])
				if i%256 == 255 {
					eng.Drain(time.Minute)
				}
			}
			eng.Drain(time.Minute)
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/tuple")
			if d := eng.TotalDropped(); d != 0 {
				b.Fatalf("%d tuples dropped: the shard was not measured on every batch", d)
			}
		})
	}
}
