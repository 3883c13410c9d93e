package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func TestJoinEntityLive(t *testing.T) {
	fed, net := newTestFederation(t, 2)
	if err := fed.JoinEntity("late", simnet.Point{X: 50}, 2, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.JoinEntity("late", simnet.Point{}, 1, miniFactory); err == nil {
		t.Error("duplicate live join accepted")
	}
	if got := len(fed.EntityIDs()); got != 3 {
		t.Fatalf("entities = %d", got)
	}
	// The late joiner can host queries and receives stream data.
	var mu sync.Mutex
	results := 0
	if err := fed.SubmitQueryTo(priceQuery("q-late", 0, 1000), "late",
		func(stream.Tuple) { mu.Lock(); results++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := workload.NewTicker(5, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(30)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	if results != 30 {
		t.Fatalf("late joiner results = %d, want 30", results)
	}
	// Dissemination trees remain valid with the new member.
	if err := fed.DisseminationTree("quotes").Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEntityRequiresStart(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := New(net, workload.Catalog(10, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.JoinEntity("x", simnet.Point{}, 1, miniFactory); err == nil {
		t.Error("live join before Start accepted")
	}
}

func TestLeaveEntityMigratesQueries(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	var mu sync.Mutex
	results := map[string]int{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("q%d", i)
		qid := id
		if err := fed.SubmitQueryTo(priceQuery(id, 0, 1000), "e00",
			func(stream.Tuple) { mu.Lock(); results[qid]++; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	migrated, err := fed.LeaveEntity("e00")
	if err != nil {
		t.Fatal(err)
	}
	if migrated != 4 {
		t.Fatalf("migrated = %d, want 4", migrated)
	}
	if _, err := fed.LeaveEntity("e00"); err == nil {
		t.Error("double leave accepted")
	}
	if got := len(fed.EntityIDs()); got != 2 {
		t.Fatalf("entities = %d", got)
	}
	for i := 0; i < 4; i++ {
		host, ok := fed.QueryEntity(fmt.Sprintf("q%d", i))
		if !ok || host == "e00" {
			t.Fatalf("q%d on %s/%v after leave", i, host, ok)
		}
	}
	// All queries still produce results on the survivors.
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := workload.NewTicker(6, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(10)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 4; i++ {
		if got := results[fmt.Sprintf("q%d", i)]; got != 10 {
			t.Errorf("q%d results after migration = %d, want 10", i, got)
		}
	}
	if err := fed.DisseminationTree("quotes").Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaveLastEntityRefused(t *testing.T) {
	fed, _ := newTestFederation(t, 2)
	if _, err := fed.LeaveEntity("e00"); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.LeaveEntity("e01"); err == nil {
		t.Error("removing the last entity accepted")
	}
}

func TestReorganizeTreesLive(t *testing.T) {
	// Build with the Balanced strategy (geometry-blind) so reorganizing
	// toward locality has work to do.
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	catalog := workload.Catalog(100, 20)
	fed, err := New(net, catalog, Options{Strategy: 1 /* Balanced */, Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{TuplesPerSec: 100, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pos := simnet.Point{X: float64((i * 37) % 100), Y: float64((i * 61) % 100)}
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), pos, 1, miniFactory); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	results := 0
	if err := fed.SubmitQueryTo(priceQuery("q", 0, 1000), "e03",
		func(stream.Tuple) { mu.Lock(); results++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tree := fed.DisseminationTree("quotes")
	before := tree.TotalEdgeLength()
	total := 0
	for pass := 0; pass < 10; pass++ {
		n, err := fed.ReorganizeTrees()
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n == 0 {
			break
		}
	}
	if total == 0 {
		t.Fatal("reorganization found nothing to improve on a balanced tree")
	}
	if after := tree.TotalEdgeLength(); after >= before {
		t.Fatalf("edge length %v -> %v", before, after)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Data still flows to the query after rewiring.
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := workload.NewTicker(7, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(20)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	defer mu.Unlock()
	if results != 20 {
		t.Fatalf("results after reorganization = %d, want 20", results)
	}
}

func TestChurnThenRebalance(t *testing.T) {
	// Join + leave + rebalance interleaved: the federation stays
	// consistent and queries keep flowing.
	fed, net := newTestFederation(t, 3)
	for i := 0; i < 9; i++ {
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("q%d", i), 0, 500), "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.JoinEntity("e99", simnet.Point{X: 70}, 2, miniFactory); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// The late joiner should have received some of the load.
	hostCounts := map[string]int{}
	for i := 0; i < 9; i++ {
		host, _ := fed.QueryEntity(fmt.Sprintf("q%d", i))
		hostCounts[host]++
	}
	if hostCounts["e00"] == 9 {
		t.Error("rebalance after join moved nothing")
	}
	if _, err := fed.LeaveEntity("e01"); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if fed.NumQueries() != 9 {
		t.Fatalf("queries = %d", fed.NumQueries())
	}
}

func TestFederationAdaptOrdering(t *testing.T) {
	// Early filtering means a lone query's filters only ever see
	// matching tuples; operator ordering matters when co-located
	// queries share the entity's (union) interest traffic. q1 and q2
	// have disjoint volume interests; the workload matches q2, so q1's
	// volume filter rejects everything and must move to the front.
	fed, net := newTestFederation(t, 2)
	q1 := engine.QuerySpec{
		ID:     "q1",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1}, // passes all
			{Field: "volume", Lo: 0, Hi: 100, Cost: 1}, // rejects the workload
		},
	}
	q2 := engine.QuerySpec{
		ID:     "q2",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "volume", Lo: 200000, Hi: 1000000, Cost: 1},
		},
	}
	if err := fed.SubmitQueryTo(q1, "e00", nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(q2, "e00", nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	var batch stream.Batch
	for i := 0; i < 300; i++ {
		batch = append(batch, stream.NewTuple("quotes", uint64(i),
			time.Unix(int64(i), 0).UTC(),
			stream.String("S0000"), stream.Float(500), stream.Int(999999)))
	}
	if err := fed.Publish("quotes", batch); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if n := fed.adaptOrdering(); n != 1 {
		t.Fatalf("federation adapted %d queries, want 1 (q1)", n)
	}
}

// TestAdaptOnceReordersFilterChain: an adaptation round runs the
// Adaptation Module's re-order sweep. q1's expensive filter passes every
// tuple and runs first; its cheap one drops half. q2, co-located on the
// entity's one processor, widens the entity's interest so q1 sees the
// tuples it rejects. After one batch has set the filters' selectivities,
// one AdaptOnce moves the cheap selective filter to the front and counts
// it in sspd_am_reorders_total, on either engine, and the results equal
// those of a bare MiniEngine fed the same batches.
func TestAdaptOnceReordersFilterChain(t *testing.T) {
	q1 := engine.QuerySpec{ID: "q1", Source: "quotes", Filters: []engine.FilterSpec{
		{Field: "price", Lo: 0, Hi: 1000, Cost: 10}, // passes all, expensive
		{Field: "volume", Lo: 0, Hi: 100, Cost: 1},  // drops half, cheap
	}}
	q2 := engine.QuerySpec{ID: "q2", Source: "quotes", Filters: []engine.FilterSpec{
		{Field: "volume", Lo: 200000, Hi: 1000000, Cost: 1},
	}}
	batches := make([]stream.Batch, 4)
	for i := range 4 * 64 {
		vol := int64(50)
		if i%2 == 1 {
			vol = 999999
		}
		batches[i/64] = append(batches[i/64], stream.NewTuple("quotes", uint64(i+1),
			time.Unix(int64(i), 0).UTC(), stream.String("S0000"), stream.Float(500), stream.Int(vol)))
	}
	type results map[string][]string
	var mu sync.Mutex
	collect := func(into results, id string) func(stream.Tuple) {
		return func(tu stream.Tuple) {
			mu.Lock()
			into[id] = append(into[id], tu.String())
			mu.Unlock()
		}
	}
	catalog := workload.Catalog(100, 20)
	want := results{}
	bare := engine.NewMini("bare", catalog)
	defer bare.Close()
	for _, spec := range []engine.QuerySpec{q1, q2} {
		if err := bare.Register(spec, collect(want, spec.ID)); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range batches {
		bare.IngestBatch(b)
	}
	reorders := func(fed *Federation) string {
		var sb strings.Builder
		if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "sspd_am_reorders_total "); ok {
				return v
			}
		}
		t.Fatal("no sspd_am_reorders_total in the exposition")
		return ""
	}
	for name, factory := range map[string]entity.EngineFactory{"shard": fullFactory, "mini": miniFactory} {
		t.Run(name, func(t *testing.T) {
			net := simnet.NewSim(nil)
			t.Cleanup(func() { net.Close() })
			fed := startFederation(t, net, Options{}, 1, 1, factory)
			got := results{}
			for _, spec := range []engine.QuerySpec{q1, q2} {
				if err := fed.SubmitQueryTo(spec, "e00", collect(got, spec.ID)); err != nil {
					t.Fatal(err)
				}
			}
			fed.Settle(2 * time.Second)
			// publish feeds batches and waits until their results are out.
			sent := 0
			publish := func(bs ...stream.Batch) {
				for _, b := range bs {
					if err := fed.Publish("quotes", b); err != nil {
						t.Fatal(err)
					}
				}
				sent += len(bs) * 32 // q1 and q2 each pass half of every batch
				deadline := time.Now().Add(5 * time.Second)
				for {
					mu.Lock()
					n := len(got["q1"]) + len(got["q2"])
					mu.Unlock()
					if n == 2*sent {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d results after %d batches, want %d", n, sent/32, 2*sent)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
			publish(batches[0])
			if v := reorders(fed); v != "0" {
				t.Fatalf("sspd_am_reorders_total = %s before any round, want 0", v)
			}
			if _, err := fed.AdaptOnce(); err != nil {
				t.Fatal(err)
			}
			if v := reorders(fed); v != "1" {
				t.Fatalf("sspd_am_reorders_total = %s after one adaptation round, want 1 (q1's cheap selective filter first)", v)
			}
			publish(batches[1:]...)
			mu.Lock()
			defer mu.Unlock()
			for _, id := range []string{"q1", "q2"} {
				if !slices.Equal(got[id], want[id]) {
					t.Fatalf("%s: federation delivered %d results, a bare MiniEngine %d, or in another order", id, len(got[id]), len(want[id]))
				}
			}
		})
	}
}
