package core

import (
	"sort"
	"sync"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

// countQuery is an ungrouped windowed count — the order-insensitive
// continuity probe: once the window is warm, every result's value must
// equal the window size, whatever order tuples arrived in.
func countQuery(id string, window int) engine.QuerySpec {
	return engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Agg: &engine.AggSpec{Fn: 0 /* AggCount */, ValueField: "price",
			Window: stream.CountWindow(window)},
		Load: 5,
	}
}

func symbolJoinQuery(id string) engine.QuerySpec {
	return engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Join: &engine.JoinSpec{Stream: "trades", LeftKey: "symbol",
			RightKey: "symbol", Window: stream.CountWindow(32), Cost: 1},
		Load: 5,
	}
}

// seqLog records, per result tuple, how many results each input seq
// produced plus every aggregate value seen (field 1).
type seqLog struct {
	mu     sync.Mutex
	counts map[uint64]int
	values []float64
}

func (l *seqLog) observe(t stream.Tuple) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.counts == nil {
		l.counts = map[uint64]int{}
	}
	l.counts[t.Seq]++
	if len(t.Values) > 1 {
		l.values = append(l.values, t.Value(1).AsFloat())
	}
}

func (l *seqLog) snapshot() (map[uint64]int, []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := make(map[uint64]int, len(l.counts))
	for k, v := range l.counts {
		c[k] = v
	}
	return c, append([]float64(nil), l.values...)
}

// assertWindowContinuity checks the count-window invariant: sorted
// ascending, the values must be 1, 2, ..., window-1 and then the window
// size for every remaining result. A restarted (lost) window would
// repeat the warmup ramp; a duplicated replay would repeat values.
func assertWindowContinuity(t *testing.T, values []float64, window int) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	for i, v := range sorted {
		want := float64(i + 1)
		if want > float64(window) {
			want = float64(window)
		}
		if v != want {
			t.Fatalf("window continuity broken: sorted value[%d] = %v, want %v "+
				"(window restarted or replay duplicated)", i, v, want)
		}
	}
}

// TestLiveMigrationStatefulUnderLoad is the headline acceptance
// property: a windowed aggregate AND a windowed join migrate across
// three entities while quote batches are in flight, and every published
// tuple yields its results exactly once, with window contents carried
// across each hop.
func TestLiveMigrationStatefulUnderLoad(t *testing.T) {
	const window = 64
	fed, _ := newTestFederation(t, 3)

	aggLog, joinLog := &seqLog{}, &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", window), "e00", aggLog.observe); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(symbolJoinQuery("join"), "e00", joinLog.observe); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Fix the trade-side join windows first, so each quote's match count
	// is independent of migration timing.
	tick := workload.NewTicker(5, 100, 1.2)
	var trades stream.Batch
	for i := 0; i < 200; i++ {
		trades = append(trades, tick.NextTrade())
	}
	if err := fed.Publish("trades", trades); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// Publish quote batches with a migration between each — WITHOUT
	// settling first, so tuples are in flight when the source pauses.
	var quotes []stream.Batch
	hops := []string{"e01", "e02", "e00"}
	publish := func(k int) {
		b := tick.Batch(k)
		quotes = append(quotes, b)
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
	}
	publish(100) // warm the windows past one full turn
	for _, to := range hops {
		publish(50)
		if err := fed.MigrateQuery("agg", to); err != nil {
			t.Fatalf("migrate agg -> %s: %v", to, err)
		}
		if err := fed.MigrateQuery("join", to); err != nil {
			t.Fatalf("migrate join -> %s: %v", to, err)
		}
	}
	publish(50)
	fed.Settle(2 * time.Second)

	if e, _ := fed.QueryEntity("agg"); e != "e00" {
		t.Fatalf("agg landed on %s, want e00", e)
	}

	// An oracle engine fed the identical tuple sequence defines ground
	// truth for the join's per-seq result counts.
	oracle := engine.NewMini("oracle", workload.Catalog(100, 20))
	defer oracle.Close()
	oracleJoin := &seqLog{}
	if err := oracle.Register(symbolJoinQuery("join"), oracleJoin.observe); err != nil {
		t.Fatal(err)
	}
	oracle.IngestBatch(trades)
	for _, b := range quotes {
		oracle.IngestBatch(b)
	}

	aggCounts, aggValues := aggLog.snapshot()
	published := 0
	for _, b := range quotes {
		published += len(b)
		for _, tu := range b {
			switch aggCounts[tu.Seq] {
			case 1:
			case 0:
				t.Fatalf("tuple seq %d lost across migration", tu.Seq)
			default:
				t.Fatalf("tuple seq %d processed %d times", tu.Seq, aggCounts[tu.Seq])
			}
		}
	}
	if len(aggValues) != published {
		t.Fatalf("agg results = %d, want %d", len(aggValues), published)
	}
	assertWindowContinuity(t, aggValues, window)

	joinCounts, _ := joinLog.snapshot()
	wantJoin, _ := oracleJoin.snapshot()
	if len(joinCounts) != len(wantJoin) {
		t.Fatalf("join produced results for %d seqs, oracle %d", len(joinCounts), len(wantJoin))
	}
	for seq, want := range wantJoin {
		if joinCounts[seq] != want {
			t.Fatalf("join seq %d: %d results, oracle %d", seq, joinCounts[seq], want)
		}
	}

	// Six committed hops, all stateful, all with serialized state.
	recs := fed.Migrations()
	if len(recs) != 2*len(hops) {
		t.Fatalf("migration history has %d records, want %d", len(recs), 2*len(hops))
	}
	for _, r := range recs {
		if r.Outcome != "commit" {
			t.Fatalf("migration %s %s->%s: outcome %s (%s)", r.Query, r.From, r.To, r.Outcome, r.Reason)
		}
		if !r.Stateful || r.StateBytes <= 0 {
			t.Fatalf("migration %s: stateful=%v state_bytes=%d", r.Query, r.Stateful, r.StateBytes)
		}
	}
}

// TestMigrationRollbackLeavesSourceRunning injects a destination
// placement failure (a conflicting query already occupies the
// destination) and asserts the protocol's first promise: the query
// keeps running on the source, state intact, zero results lost.
func TestMigrationRollbackLeavesSourceRunning(t *testing.T) {
	const window = 16
	fed, _ := newTestFederation(t, 2)
	log := &seqLog{}
	if err := fed.SubmitQueryTo(countQuery("agg", window), "e00", log.observe); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(9, 100, 1.2)
	var published stream.Batch
	publish := func(k int) {
		b := tick.Batch(k)
		published = append(published, b...)
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
		fed.Settle(2 * time.Second)
	}
	publish(40)

	// Occupy the destination with a conflicting placement: a spec with
	// the same ID that matches nothing (negative price band).
	blocker := engine.QuerySpec{
		ID:     "agg",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: -10, Hi: -1, Cost: 1},
		},
	}
	fed.mu.Lock()
	dest := fed.entities["e01"]
	fed.mu.Unlock()
	if err := dest.ent.PlaceQuery(blocker, 1); err != nil {
		t.Fatal(err)
	}

	if err := fed.MigrateQuery("agg", "e01"); err == nil {
		t.Fatal("migration onto occupied destination succeeded")
	}
	if e, _ := fed.QueryEntity("agg"); e != "e00" {
		t.Fatalf("query moved to %s despite failed migration", e)
	}
	recs := fed.Migrations()
	if len(recs) != 1 || recs[0].Outcome != "rollback" {
		t.Fatalf("migration history = %+v, want one rollback", recs)
	}

	// The source must still answer, with its window intact.
	if _, err := dest.ent.RemoveQuery("agg"); err != nil {
		t.Fatal(err)
	}
	publish(40)
	counts, values := log.snapshot()
	for _, tu := range published {
		if counts[tu.Seq] != 1 {
			t.Fatalf("seq %d delivered %d times, want 1", tu.Seq, counts[tu.Seq])
		}
	}
	assertWindowContinuity(t, values, window)
}

// TestRemoveQueryBlockedDuringMigration pins the books-vs-entity
// invariant: RemoveQuery refuses to race a live migration.
func TestRemoveQueryBlockedDuringMigration(t *testing.T) {
	fed, _ := newTestFederation(t, 2)
	if err := fed.SubmitQueryTo(countQuery("agg", 8), "e00", nil); err != nil {
		t.Fatal(err)
	}
	fed.mu.Lock()
	fed.queries["agg"].migrating = true
	fed.mu.Unlock()
	if err := fed.RemoveQuery("agg"); err == nil {
		t.Fatal("RemoveQuery succeeded mid-migration")
	}
	fed.mu.Lock()
	fed.queries["agg"].migrating = false
	fed.mu.Unlock()
	if err := fed.RemoveQuery("agg"); err != nil {
		t.Fatal(err)
	}
}

// newAdaptFederation is a two-processor MiniEngine federation with
// caller options — the adaptation tests need the hysteresis knob.
func newAdaptFederation(t *testing.T, nEntities int, opts Options) *Federation {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	return startFederation(t, net, opts, nEntities, 2, miniFactory)
}

// TestAdaptOnceRebalancesByMigration piles disjoint-interest queries on
// one entity and runs a single controller round: the repartitioner must
// spread them, and every move must go through the live-migration path
// (visible in the migration history as commits).
func TestAdaptOnceRebalancesByMigration(t *testing.T) {
	fed := newAdaptFederation(t, 2, Options{
		Strategy: dissemination.Locality, Fanout: 3,
		AdaptationHysteresis: 1e-3,
	})
	syms := [][]string{{"s0"}, {"s1"}, {"s2"}, {"s3"}}
	for i, s := range syms {
		q := priceQuery("q"+s[0], float64(i*10), float64(i*10+5), s...)
		if err := fed.SubmitQueryTo(q, "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(time.Second)

	moved, err := fed.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("controller round moved nothing off a 4-0 imbalance")
	}
	if got := fed.adaptMoves.Value(); got != int64(moved) {
		t.Fatalf("adaptMoves = %d, want %d", got, moved)
	}
	perEntity := map[string]int{}
	for _, s := range syms {
		e, ok := fed.QueryEntity("q" + s[0])
		if !ok {
			t.Fatalf("query q%s vanished", s[0])
		}
		perEntity[e]++
	}
	if perEntity["e00"] == 4 {
		t.Fatalf("assignment still 4-0: %v", perEntity)
	}
	recs := fed.Migrations()
	if len(recs) != moved {
		t.Fatalf("%d moves but %d migration records", moved, len(recs))
	}
	for _, r := range recs {
		if r.Outcome != "commit" {
			t.Fatalf("adaptation move rolled back: %+v", r)
		}
	}

	// A second round from the balanced state must hold still.
	again, err := fed.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("controller oscillated: second round moved %d", again)
	}
}

// TestAdaptationHysteresisBlocksMarginalMoves is the damping contract:
// with the default (high) hysteresis, the same imbalance is left alone
// because the migration cost outweighs the modeled gain.
func TestAdaptationHysteresisBlocksMarginalMoves(t *testing.T) {
	fed := newAdaptFederation(t, 2, Options{
		Strategy: dissemination.Locality, Fanout: 3,
		AdaptationHysteresis: 1e6,
	})
	for i := 0; i < 4; i++ {
		q := priceQuery("q"+string(rune('0'+i)), float64(i*10), float64(i*10+5))
		if err := fed.SubmitQueryTo(q, "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	moved, err := fed.AdaptOnce()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Fatalf("hysteresis %v still allowed %d moves", 1e6, moved)
	}
	if len(fed.Migrations()) != 0 {
		t.Fatalf("skipped moves left migration records: %+v", fed.Migrations())
	}
}

// TestAdaptationControllerBackground exercises the opt-in loop end to
// end: EnableAdaptation puts the controller on the clock at Start, it
// notices the imbalance by itself, and Close takes it off.
func TestAdaptationControllerBackground(t *testing.T) {
	fed := newAdaptFederation(t, 2, Options{
		Strategy: dissemination.Locality, Fanout: 3,
		EnableAdaptation:     true,
		AdaptationInterval:   25 * time.Millisecond,
		AdaptationHysteresis: 1e-3,
	})
	syms := [][]string{{"s0"}, {"s1"}, {"s2"}, {"s3"}}
	for i, s := range syms {
		q := priceQuery("q"+s[0], float64(i*10), float64(i*10+5), s...)
		if err := fed.SubmitQueryTo(q, "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fed.adaptMoves.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background controller never moved a query")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fed.Close()
	fed.Close() // idempotent
}
