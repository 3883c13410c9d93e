package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func shardFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewShard(name, c, 1)
}

// TestEngineSaturationChaos is the introspection plane's chaos
// acceptance test, under the shipped backpressure rules: a deliberately
// stalled shard engine overruns its ring, and the backpressure watchdog
// must journal engine.saturated for the drop-rate rule (auto-capturing a
// profile on the edge) and then engine.recovered for every rule that
// breached once the load drains.
func TestEngineSaturationChaos(t *testing.T) {
	const dropRule = "drop_rate < 1%"
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startFederation(t, net, Options{Fanout: 2,
		Logger: obslog.New(obslog.NewJournal(obslog.DefaultJournalCapacity), nil)}, 1, 1, shardFactory)
	if _, ok := fed.ClusterEngine(); ok {
		t.Fatal("ClusterEngine must report disabled before the stats plane")
	}
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableProfiling(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}

	// The first result parks the shard goroutine on the gate; the ring
	// behind it fills and every further delivery drops. The gate is
	// released through a Once and deferred so a failing assertion can
	// never leave the shard parked under fed.Close.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	gated := false
	if err := fed.SubmitQueryTo(priceQuery("qd", 0, 1000), "e00",
		func(stream.Tuple) {
			if !gated {
				gated = true
				<-gate
			}
		}); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	tick := workload.NewTicker(1, 100, 1.2)
	dropped := func() int64 {
		var d int64
		for _, ee := range fed.liveEngineEntities() {
			d += ee.Stats.Totals().Dropped
		}
		return d
	}
	deadline := time.Now().Add(15 * time.Second)
	for dropped() == 0 {
		if err := fed.Publish("quotes", tick.Batch(4)); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("could not overrun the shard ring")
		}
	}
	// The ring is now full and its consumer parked, so every further
	// delivery drops: push the window's drop rate far past 1% instead of
	// relying on in-flight backlog for the margin.
	for i := 0; i < 100; i++ {
		if err := fed.Publish("quotes", tick.Batch(4)); err != nil {
			t.Fatal(err)
		}
	}
	fed.Settle(2 * time.Second)

	// One watchdog tick while saturated: way more than 1% of the window
	// dropped. The occupancy rule may trip too; each rule journals once.
	fed.StatsTick()
	fed.Settle(2 * time.Second)
	sat := fed.Journal().Since(0, "engine.saturated")
	satSeq := make(map[string]uint64, len(sat))
	for _, e := range sat {
		if _, dup := satSeq[e.Fields["rule"]]; dup {
			t.Fatalf("rule %q journaled engine.saturated twice in one tick", e.Fields["rule"])
		}
		satSeq[e.Fields["rule"]] = e.Seq
	}
	if _, ok := satSeq[dropRule]; !ok {
		t.Fatalf("engine.saturated events %+v, want one for %q", sat, dropRule)
	}
	view, ok := fed.ClusterEngine()
	if !ok || !view.Saturated {
		t.Fatalf("ClusterEngine saturated = %v ok = %v, want true", view.Saturated, ok)
	}
	if view.DropRate <= 0.01 {
		t.Fatalf("window drop rate = %v, want > 1%%", view.DropRate)
	}

	// The saturation edge auto-captured into the profile ring (the heap
	// capture is synchronous inside the trigger, the CPU one async).
	prof := fed.Profiler()
	if prof == nil {
		t.Fatal("Profiler() = nil after EnableProfiling")
	}
	prof.WaitIdle()
	if got := prof.Total(); got == 0 {
		t.Fatal("no profile captured on the saturation edge")
	}
	if len(fed.Journal().Since(0, "profile.captured")) == 0 {
		t.Fatal("profile.captured not journaled")
	}

	// A second stalled tick must NOT journal a second transition: the
	// rules are already in breach.
	if err := fed.Publish("quotes", tick.Batch(4)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	fed.StatsTick()
	if n := len(fed.Journal().Since(0, "engine.saturated")); n != len(sat) {
		t.Fatalf("engine.saturated events after second stalled tick = %d, want %d (no re-journal)", n, len(sat))
	}

	// Open the gate, drain the backlog, and push clean windows through
	// until every breached rule has recovered: the drop rate falls to
	// zero at once, the occupancy percentile once the drain is done.
	openGate()
	fed.Settle(5 * time.Second)
	var rec []obslog.Event
	for deadline := time.Now().Add(15 * time.Second); len(rec) < len(sat); {
		if time.Now().After(deadline) {
			t.Fatalf("engine.recovered events %+v, want one per saturated rule %v", rec, satSeq)
		}
		for i := 0; i < 50; i++ {
			if err := fed.Publish("quotes", tick.Batch(4)); err != nil {
				t.Fatal(err)
			}
		}
		fed.Settle(5 * time.Second)
		fed.StatsTick()
		rec = fed.Journal().Since(0, "engine.recovered")
	}
	if view, _ := fed.ClusterEngine(); view.Saturated {
		t.Fatal("still saturated after the clean window")
	}

	// Each saturated/recovered pair sits in causal order in the journal.
	for _, e := range rec {
		rule := e.Fields["rule"]
		if seq, ok := satSeq[rule]; !ok || seq >= e.Seq {
			t.Fatalf("rule %q recovered at seq %d without an earlier saturation (%v)", rule, e.Seq, satSeq)
		}
	}

	// Metric families reflect the episode on the local registry.
	var buf bytes.Buffer
	if err := fed.registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`sspd_engine_saturations_total{rule="drop_rate < 1%"} 1`,
		`sspd_engine_saturated{rule="drop_rate < 1%"} 0`,
		`sspd_engine_saturated{rule="ring_occupancy_p99 < 75%"} 0`,
		`sspd_engine_dropped_total{entity="e00"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("local exposition missing %q", want)
		}
	}
}

// TestEngineViewFederatesRemoteRows: an entity row carried only by the
// stats digest (no live handle) still appears in the cluster engine
// view with its shard telemetry.
func TestEngineViewFederatesRemoteRows(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := New(net, workload.Catalog(100, 20), Options{Fanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", simnet.Point{},
		StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"e00", "e01"} {
		if err := fed.AddEntity(id, simnet.Point{X: 10}, 1, shardFactory); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fed.EnableStatsPlane(0); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(priceQuery("q0", 0, 1000), "e00", nil); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(50)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	settleTicks(fed, 2)

	view, ok := fed.ClusterEngine()
	if !ok {
		t.Fatal("plane enabled but ClusterEngine not ok")
	}
	if len(view.Entities) != 2 {
		t.Fatalf("view has %d entities, want 2: %+v", len(view.Entities), view.Entities)
	}
	for _, ee := range view.Entities {
		if len(ee.Stats.Shards) == 0 {
			t.Fatalf("%s: no shard rows in the view", ee.Entity)
		}
	}
	// The digest rows carry the telemetry (Engine set in EntityStats),
	// so the view answers for entities the root no longer reads live.
	rows, _, ok := fed.ClusterStats()
	if !ok {
		t.Fatal("no root digest")
	}
	for id, row := range rows {
		if row.Engine == nil {
			t.Fatalf("digest row %s missing engine telemetry", id)
		}
		if row.Engine.Queries < 0 || len(row.Engine.Shards) == 0 {
			t.Fatalf("digest row %s engine telemetry empty: %+v", id, row.Engine)
		}
	}
}
