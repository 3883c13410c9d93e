package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/stream"
)

// Regression tests for the ShardEngine concurrency review: per-producer
// ordering, the pending counter, AdaptOrdering's lock discipline around
// spinning control enqueues, and control calls on a stopped shard.

func regressCatalog(t *testing.T) *stream.Catalog {
	t.Helper()
	cat := stream.NewCatalog()
	sc := stream.MustSchema("events",
		stream.Field{Name: "producer", Type: stream.KindInt, Lo: 0, Hi: 16},
		stream.Field{Name: "seq", Type: stream.KindInt, Lo: 0, Hi: 1 << 40},
	)
	if err := cat.Register(sc); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestShardEnginePerProducerOrderPreserved: batches one goroutine hands
// to a query are processed in the order handed over (contract point 1),
// however producers interleave on the ring. Each producer's seq sequence
// must emerge from the (single) shard monotonically — and completely:
// the ring holds every batch of both producers at once, so nothing may
// be shed.
func TestShardEnginePerProducerOrderPreserved(t *testing.T) {
	cat := regressCatalog(t)
	eng := NewShard("regress", cat, 1)
	defer eng.Close()

	var mu sync.Mutex
	var got []stream.Tuple
	spec := QuerySpec{ID: "ord", Source: "events"}
	if err := eng.Register(spec, func(tu stream.Tuple) {
		mu.Lock()
		got = append(got, tu.Clone())
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	const producers = 2
	const perProducer = 30000
	const batch = 100 // producers × perProducer/batch = 600 ring items < shardRingDepth
	base := time.Unix(1754000000, 0).UTC()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for lo := 0; lo < perProducer; lo += batch {
				b := make(stream.Batch, batch) // the engine keeps what it is fed
				for i := range b {
					seq := lo + i
					b[i] = stream.NewTuple("events", uint64(seq), base, stream.Int(int64(p)), stream.Int(int64(seq)))
				}
				_ = eng.FeedQueryBatch("ord", b) // registered above
			}
		}(p)
	}
	wg.Wait()
	if !eng.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	if d := eng.Dropped("ord"); d != 0 {
		t.Fatalf("ring dropped %d tuples of a feed it can hold whole", d)
	}
	mu.Lock()
	defer mu.Unlock()
	last := make([]int64, producers)
	for i := range last {
		last[i] = -1
	}
	for i, tu := range got {
		p := tu.Value(0).AsInt()
		seq := tu.Value(1).AsInt()
		if seq <= last[p] {
			t.Fatalf("result %d: producer %d seq %d after seq %d — per-producer order inverted", i, p, seq, last[p])
		}
		last[p] = seq
	}
	if len(got) != producers*perProducer {
		t.Fatalf("got %d results, want %d", len(got), producers*perProducer)
	}
}

// TestShardEnginePendingNonNegative: the pending counter is incremented
// before the ring publish, so it can never dip negative — Drain sums it
// across shards and a transient negative could fake an all-idle zero.
func TestShardEnginePendingNonNegative(t *testing.T) {
	cat := regressCatalog(t)
	eng := NewShard("regress", cat, 2)
	defer eng.Close()
	spec := QuerySpec{ID: "p", Source: "events"}
	if err := eng.Register(spec, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bad atomic.Int64
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sh := range eng.shards {
				if sh.pending.Load() < 0 {
					bad.Add(1)
				}
			}
		}
	}()

	base := time.Unix(1754000000, 0).UTC()
	deadline := time.Now().Add(300 * time.Millisecond)
	seq := uint64(0)
	for time.Now().Before(deadline) {
		b := make(stream.Batch, 64) // the engine keeps what it is fed
		for i := range b {
			b[i] = stream.NewTuple("events", seq, base, stream.Int(0), stream.Int(int64(seq)))
			seq++
		}
		_ = eng.FeedQueryBatch("p", b) // registered above
	}
	close(stop)
	sampler.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("observed negative shard pending %d times", n)
	}
}

// TestShardEngineAdaptRingFullWriterQueuedNoDeadlock reconstructs the
// review deadlock deterministically:
//
//  1. the consumer shard blocks inside an emit callback (gate), and the
//     ring behind it fills to capacity;
//  2. AdaptOrdering starts — its control enqueue must spin on the full
//     ring;
//  3. a writer (Register) queues for mu.Lock;
//  4. the gate opens and the consumer's next emit re-enters the engine
//     under mu.RLock.
//
// If AdaptOrdering held mu.RLock across the spinning enqueue, the
// queued writer would block the emit's RLock behind it, the ring would
// never drain, and the spin would never end — engine-wide deadlock.
// With the fix everything completes promptly.
func TestShardEngineAdaptRingFullWriterQueuedNoDeadlock(t *testing.T) {
	cat := regressCatalog(t)
	eng := NewShard("regress", cat, 2)

	gate := make(chan struct{})
	ready := make(chan struct{})
	var once sync.Once
	spec := QuerySpec{ID: "slow", Source: "events"}
	if err := eng.Register(spec, func(stream.Tuple) {
		once.Do(func() {
			close(ready) // consumer is now parked inside processing
			<-gate
		})
		eng.Dropped("slow") // re-enter the engine under mu.RLock
	}); err != nil {
		t.Fatal(err)
	}

	// Fill the owning shard's ring to capacity behind the gated batch.
	sh := eng.shardFor("slow")
	base := time.Unix(1754000000, 0).UTC()
	seq := uint64(0)
	fill := time.Now().Add(10 * time.Second)
	for sh.pending.Load() <= shardRingDepth {
		b := make(stream.Batch, 8) // the engine keeps what it is fed
		for i := range b {
			b[i] = stream.NewTuple("events", seq, base, stream.Int(0), stream.Int(int64(seq)))
			seq++
		}
		_ = eng.FeedQueryBatch("slow", b) // registered above
		if time.Now().After(fill) {
			t.Fatal("could not fill shard ring")
		}
	}
	<-ready

	done := make(chan struct{}, 2)
	go func() { // spins on the full ring until the consumer drains
		eng.AdaptOrdering(0.5)
		done <- struct{}{}
	}()
	time.Sleep(50 * time.Millisecond)
	go func() { // writer queues on mu.Lock
		if err := eng.Register(QuerySpec{ID: "w", Source: "events"}, nil); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}()
	time.Sleep(50 * time.Millisecond)
	close(gate)

	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock: AdaptOrdering/Register never completed with a full ring and a queued writer")
		}
	}
	if !eng.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	eng.Close()
}

// TestShardEngineControlOnStoppedShardReturns: a control call that finds
// its query in the tables just before Close stops the shards used to
// publish its control item into the dead shard's (non-full) ring and
// wait for an answer forever. The state between "shards stopped" and
// "tables cleared" is rebuilt by stopping the shard by hand; every
// control call must come back, with an error where it has one.
func TestShardEngineControlOnStoppedShardReturns(t *testing.T) {
	eng := NewShard("regress", regressCatalog(t), 1)
	if err := eng.Register(QuerySpec{ID: "q", Source: "events"}, nil); err != nil {
		t.Fatal(err)
	}
	sh := eng.shardFor("q")
	close(sh.stop)
	<-sh.done

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := eng.SnapshotQueryState("q"); err == nil {
			t.Error("snapshot on a stopped shard succeeded")
		}
		if err := eng.RestoreQueryState("q", nil); err == nil {
			t.Error("restore on a stopped shard succeeded")
		}
		if _, ok := eng.QueryStateBytes("q"); ok {
			t.Error("state size on a stopped shard reported")
		}
		if n := eng.AdaptOrdering(0.5); n != 0 {
			t.Errorf("adapt on a stopped shard changed %d queries", n)
		}
		if err := eng.Register(QuerySpec{ID: "late", Source: "events"}, nil); err == nil {
			t.Error("register onto a stopped shard succeeded")
		}
		if _, err := eng.Unregister("q"); err == nil {
			t.Error("unregister on a stopped shard succeeded")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a control call is waiting for a stopped shard")
	}
	if n := sh.pending.Load(); n != 0 {
		t.Errorf("orphaned control items left pending = %d", n)
	}
}
