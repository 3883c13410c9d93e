package engine

import (
	"sync"
	"testing"
	"time"

	"sspd/internal/stream"
)

// Engine introspection tests (DESIGN.md §14): the shard telemetry
// snapshot must account for every tuple offered, processed, and
// dropped, and the engine-lifetime drop total must survive query
// unregistration.

func TestShardEngineStatsAccounting(t *testing.T) {
	cat := regressCatalog(t)
	eng := NewShard("intro", cat, 2)
	defer eng.Close()

	spec := QuerySpec{
		ID: "q", Source: "events",
		Filters: []FilterSpec{{Field: "seq", Lo: 0, Hi: 1 << 40, Cost: 1}},
	}
	if err := eng.Register(spec, nil); err != nil {
		t.Fatal(err)
	}

	const batches = 200
	const batchSize = 64
	base := time.Unix(1754000000, 0).UTC()
	seq := uint64(0)
	for i := 0; i < batches; i++ {
		b := make(stream.Batch, batchSize) // the engine keeps what it is fed
		for j := range b {
			b[j] = stream.NewTuple("events", seq, base, stream.Int(0), stream.Int(int64(seq)))
			seq++
		}
		_ = eng.FeedQueryBatch("q", b) // registered above
	}
	if !eng.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}

	st := eng.EngineStats()
	if st.Engine != "intro" {
		t.Fatalf("Engine = %q, want intro", st.Engine)
	}
	if st.Queries != 1 {
		t.Fatalf("Queries = %d, want 1", st.Queries)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shard rows, want 2", len(st.Shards))
	}
	tot := st.Totals()
	const n = batches * batchSize
	if tot.Offered != n {
		t.Fatalf("Offered = %d, want %d", tot.Offered, n)
	}
	if tot.Dropped != 0 || st.Dropped != 0 {
		t.Fatalf("Dropped = %d/%d, want 0", tot.Dropped, st.Dropped)
	}
	if tot.Tuples != n {
		t.Fatalf("Tuples = %d, want %d", tot.Tuples, n)
	}
	// A pure filter query takes the columnar batch run: every
	// tuple takes the kernel path, and the all-pass filter keeps
	// selectivity at 1.
	if tot.KernelTuples != n || tot.InterpTuples != 0 {
		t.Fatalf("kernel/interp split = %d/%d, want %d/0", tot.KernelTuples, tot.InterpTuples, n)
	}
	if tot.KernelIn != n || tot.KernelOut != n {
		t.Fatalf("kernel in/out = %d/%d, want %d/%d", tot.KernelIn, tot.KernelOut, n, n)
	}
	if got := tot.Selectivity(); got != 1 {
		t.Fatalf("Selectivity = %v, want 1", got)
	}
	if got := tot.KernelShare(); got != 1 {
		t.Fatalf("KernelShare = %v, want 1", got)
	}
	if tot.Batches == 0 {
		t.Fatal("Batches = 0 after processing")
	}
	// One install control item crossed some shard's ring; its measured
	// wait must be recorded.
	if tot.CtlItems == 0 {
		t.Fatal("CtlItems = 0 after Register")
	}
	// Occupancy histogram: one sample per ring enqueue, so the bucket
	// counts sum to the number of published items (data + control).
	var histSum int64
	for _, c := range tot.OccHist {
		histSum += c
	}
	if histSum == 0 {
		t.Fatal("occupancy histogram empty after publishing batches")
	}
	for _, sh := range st.Shards {
		if sh.RingCap != shardRingDepth {
			t.Fatalf("shard %d RingCap = %d, want %d", sh.Shard, sh.RingCap, shardRingDepth)
		}
		if sh.Queries < 0 {
			t.Fatalf("shard %d Queries = %d", sh.Shard, sh.Queries)
		}
	}
}

// TestShardEngineTotalDroppedSurvivesUnregister: the per-query drop
// counters vanish with Unregister, but the engine-lifetime total (and
// the entity metric built from it) must keep counting drops from
// since-expired queries.
func TestShardEngineTotalDroppedSurvivesUnregister(t *testing.T) {
	cat := regressCatalog(t)
	eng := NewShard("intro", cat, 1)
	defer eng.Close()

	gate := make(chan struct{})
	var once sync.Once
	spec := QuerySpec{ID: "slow", Source: "events"}
	if err := eng.Register(spec, func(stream.Tuple) {
		once.Do(func() { <-gate })
	}); err != nil {
		t.Fatal(err)
	}

	// Stall the single shard behind the gate and overrun its ring.
	base := time.Unix(1754000000, 0).UTC()
	seq := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for eng.Dropped("slow") == 0 {
		b := make(stream.Batch, 8) // the engine keeps what it is fed
		for i := range b {
			b[i] = stream.NewTuple("events", seq, base, stream.Int(0), stream.Int(int64(seq)))
			seq++
		}
		_ = eng.FeedQueryBatch("slow", b) // registered above
		if time.Now().After(deadline) {
			t.Fatal("could not overrun the shard ring")
		}
	}
	close(gate)
	if !eng.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}

	d := eng.Dropped("slow")
	if d == 0 {
		t.Fatal("expected drops after ring overrun")
	}
	if got := eng.TotalDropped(); got < d {
		t.Fatalf("TotalDropped = %d, want >= per-query %d", got, d)
	}
	st := eng.EngineStats()
	if st.Dropped < d {
		t.Fatalf("EngineStats.Dropped = %d, want >= %d", st.Dropped, d)
	}
	if tot := st.Totals(); tot.Dropped < d {
		t.Fatalf("summed shard drops = %d, want >= %d", tot.Dropped, d)
	}

	if _, err := eng.Unregister("slow"); err != nil {
		t.Fatal(err)
	}
	if got := eng.TotalDropped(); got < d {
		t.Fatalf("TotalDropped = %d after Unregister, want >= %d (total must survive)", got, d)
	}
}

// TestShardEngineGroupedFeedDropAccounting: a grouped feed refused by a
// full ring drops the batch for every query it names, and the shard and
// engine totals are the sum of the per-query counts.
func TestShardEngineGroupedFeedDropAccounting(t *testing.T) {
	eng := NewShard("intro", regressCatalog(t), 1)
	defer eng.Close()
	gate := make(chan struct{})
	var once sync.Once
	ids := []string{"q0", "q1", "q2"}
	for _, id := range ids {
		if err := eng.Register(QuerySpec{ID: id, Source: "events"}, func(stream.Tuple) {
			once.Do(func() { <-gate })
		}); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Unix(1754000000, 0).UTC()
	b := make(stream.Batch, 8)
	for i := range b {
		b[i] = stream.NewTuple("events", uint64(i), base, stream.Int(0), stream.Int(int64(i)))
	}
	// Stall the one shard behind the gate, fill its ring, then feed ten
	// batches it must refuse. With ringDepth+1 feeds made, every later
	// one is a drop: the shard holds at most one item outside the ring.
	for i := 0; i <= shardRingDepth; i++ {
		eng.FeedGroupBatch(ids, b)
	}
	before := make(map[string]int64)
	for _, id := range ids {
		before[id] = eng.Dropped(id)
	}
	const refused = 10
	for i := 0; i < refused; i++ {
		eng.FeedGroupBatch(ids, b)
	}
	var sum int64
	for _, id := range ids {
		if got := eng.Dropped(id) - before[id]; got != refused*int64(len(b)) {
			t.Errorf("query %s: Dropped grew by %d over %d refused batches of %d, want %d",
				id, got, refused, len(b), refused*len(b))
		}
		sum += eng.Dropped(id)
	}
	if sum == 0 {
		t.Fatal("no drops after overrunning the ring")
	}
	st := eng.EngineStats()
	if eng.TotalDropped() != sum || st.Dropped != sum || st.Totals().Dropped != sum {
		t.Fatalf("engine/stats/shard drop totals = %d/%d/%d, want the per-query sum %d",
			eng.TotalDropped(), st.Dropped, st.Totals().Dropped, sum)
	}
	if off := st.Totals().Offered; off < sum {
		t.Fatalf("Offered = %d below Dropped = %d", off, sum)
	}
	close(gate)
	if !eng.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
}

func TestOccHistogramEstimators(t *testing.T) {
	if got := OccBucketBound(0); got != 0 {
		t.Fatalf("OccBucketBound(0) = %d, want 0", got)
	}
	if got := OccBucketBound(1); got != 1 {
		t.Fatalf("OccBucketBound(1) = %d, want 1", got)
	}
	if got := OccBucketBound(4); got != 15 {
		t.Fatalf("OccBucketBound(4) = %d, want 15", got)
	}

	if got := OccP99(nil, 1024); got != 0 {
		t.Fatalf("OccP99(empty) = %v, want 0", got)
	}
	// All samples found the ring empty: P99 occupancy is zero.
	idle := make([]int64, OccBuckets)
	idle[0] = 5000
	if got := OccP99(idle, 1024); got != 0 {
		t.Fatalf("OccP99(idle) = %v, want 0", got)
	}
	// 2% of samples in the [512,1023] bucket: the P99 rank lands there.
	hot := make([]int64, OccBuckets)
	hot[0] = 980
	hot[10] = 20
	want := float64(OccBucketBound(10)) / 1024
	if got := OccP99(hot, 1024); got != want {
		t.Fatalf("OccP99(hot) = %v, want %v", got, want)
	}
	// Bucket bound beyond capacity clamps to 1.0.
	over := make([]int64, OccBuckets)
	over[OccBuckets-1] = 100
	if got := OccP99(over, 1024); got != 1 {
		t.Fatalf("OccP99(over) = %v, want 1", got)
	}
}

func TestEngineStatsMerge(t *testing.T) {
	a := EngineStats{Engine: "a", Queries: 2, Dropped: 5,
		Shards: []ShardStat{{Shard: 0, Offered: 10}}}
	b := EngineStats{Engine: "b", Queries: 1, Dropped: 3,
		Shards: []ShardStat{{Shard: 0, Offered: 7}}}
	var m EngineStats
	m.Merge(a)
	m.Merge(b)
	if m.Queries != 3 || m.Dropped != 8 {
		t.Fatalf("merged queries/dropped = %d/%d, want 3/8", m.Queries, m.Dropped)
	}
	if len(m.Shards) != 2 {
		t.Fatalf("merged %d shard rows, want 2", len(m.Shards))
	}
	// Shard rows carry their engine of origin through the merge.
	if m.Shards[0].Engine != "a" || m.Shards[1].Engine != "b" {
		t.Fatalf("merged shard engines = %q/%q, want a/b", m.Shards[0].Engine, m.Shards[1].Engine)
	}
	if tot := m.Totals(); tot.Offered != 17 {
		t.Fatalf("merged Totals().Offered = %d, want 17", tot.Offered)
	}
}
