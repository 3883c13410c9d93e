package core

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/operator"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
	"sspd/internal/workload"
)

// chainQuery splits into three single-filter fragments under
// FragmentsPerQuery: 3, so tuple routing replicates the middle stage.
func chainQuery(id string) engine.QuerySpec {
	return engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 600, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 800000, Cost: 1},
			{KeyField: "symbol", Keys: []string{"S0000", "S0001", "S0002"}, Cost: 1},
		},
		Load: 5,
	}
}

// chainBatches is the deterministic workload every chain run publishes.
func chainBatches() []stream.Batch {
	tick := workload.NewTicker(7, 100, 1.2)
	out := make([]stream.Batch, 5)
	for i := range out {
		out[i] = tick.Batch(100)
	}
	return out
}

// render keys a result by its sequence and values: the stream name of a
// stateful tail's output holds the (fragment's) query ID.
func render(tu stream.Tuple) string { return strings.TrimPrefix(tu.String(), tu.Stream) }

// bareChainResults is the reference: spec on one bare MiniEngine fed the
// chain workload, as a multiset of rendered results.
func bareChainResults(t *testing.T, spec engine.QuerySpec) map[string]int {
	t.Helper()
	bare := engine.NewMini("bare", workload.Catalog(100, 20))
	defer bare.Close()
	got := make(map[string]int)
	if err := bare.Register(spec, func(tu stream.Tuple) { got[render(tu)]++ }); err != nil {
		t.Fatal(err)
	}
	for _, b := range chainBatches() {
		bare.IngestBatch(b)
	}
	return got
}

// runChain drives one federation through the chain workload — spec split
// into three fragments over four processors running factory's engine,
// the middle one replicated and tuple-routed when routed is set — and
// returns spec's results as a multiset. setup, when not nil, runs once
// the query is placed and before the first batch; the FaultPlan it is
// handed passes everything through until setup gives it rules.
func runChain(t *testing.T, spec engine.QuerySpec, factory entity.EngineFactory, routed bool,
	setup func(*Federation, *simnet.FaultPlan, *entity.Entity)) map[string]int {
	t.Helper()
	plan := simnet.NewFaultPlan(simnet.NewSim(nil), 11)
	t.Cleanup(func() { plan.Close() })
	opts := Options{Strategy: dissemination.Balanced, Fanout: 2, FragmentsPerQuery: 3}
	if routed {
		opts.EnableTupleRouting = true
	}
	fed := startFederation(t, plan, opts, 1, 4, factory)
	var mu sync.Mutex
	got := make(map[string]int)
	if err := fed.SubmitQueryTo(spec, "e00", func(tu stream.Tuple) {
		mu.Lock()
		got[render(tu)]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	en, err := fed.entity("e00")
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(fed, plan, en.ent)
	}
	for _, b := range chainBatches() {
		if err := fed.Publish("quotes", b); err != nil {
			t.Fatal(err)
		}
		settleEntity(t, plan, en.ent)
	}
	if d := en.ent.DroppedTotal(); d != 0 {
		t.Fatalf("engines dropped %d tuples; the chain run must be lossless", d)
	}
	mu.Lock()
	defer mu.Unlock()
	return maps.Clone(got)
}

// settleEntity waits, round after round, for the network to go quiet and
// every engine of ent to drain, so each hop of a chain — a frame, a
// shard's run, the next frame — has landed.
func settleEntity(t *testing.T, net interface{ Quiesce(time.Duration) bool }, ent *entity.Entity) {
	t.Helper()
	for round := 0; round < 4; round++ {
		if !net.Quiesce(5 * time.Second) {
			t.Fatal("quiesce")
		}
		for i := range ent.ProcLoads() {
			if d, ok := ent.Proc(i).(interface{ Drain(time.Duration) bool }); ok && !d.Drain(5*time.Second) {
				t.Fatal("engine drain timed out")
			}
		}
	}
}

// TestTupleRoutingDifferential is the semantics gate: under drop-free
// links, tuple-routed execution must produce a result multiset
// IDENTICAL to the static-ordering baseline — routing changes where
// tuples run, never what they compute — and both must be what one bare
// engine computes, on either engine.
func TestTupleRoutingDifferential(t *testing.T) {
	want := bareChainResults(t, chainQuery("q"))
	if len(want) == 0 {
		t.Fatal("the bare engine produced no results; the differential proves nothing")
	}
	for name, factory := range map[string]entity.EngineFactory{"mini": miniFactory, "shard": fullFactory} {
		t.Run(name, func(t *testing.T) {
			for _, routed := range []bool{false, true} {
				if got := runChain(t, chainQuery("q"), factory, routed, nil); !maps.Equal(got, want) {
					t.Fatalf("routed=%v: %d distinct results, the bare engine %d (or other counts)", routed, len(got), len(want))
				}
			}
		})
	}
}

// TestTupleRoutingAvoidsJitteredReplica is the Adaptation Module's
// acceptance test: the link from the head fragment to one replica of the
// routed middle stage jitters, and the chooser, fed trace-measured
// delays, comes to prefer the replica behind the clean link. Routing
// around the slow link changes nothing about what is computed: the
// results are a bare engine's.
func TestTupleRoutingAvoidsJitteredReplica(t *testing.T) {
	want := bareChainResults(t, chainQuery("q"))
	for _, eng := range bothEngines {
		t.Run(eng.name, func(t *testing.T) {
			var fed *Federation
			var clean entity.RouteBinding
			got := runChain(t, chainQuery("q"), eng.factory, true, func(f *Federation, plan *simnet.FaultPlan, ent *entity.Entity) {
				fed = f
				if _, err := f.EnableTracing(1); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { trace.SetActive(nil) })
				// Jitter the head's link to the first replica.
				placement, _ := ent.QueryPlacement("q")
				routes := ent.RouteBindings()
				if len(routes) != 2 {
					t.Fatalf("route bindings %+v, want 2 replicas", routes)
				}
				head, slow := placement[0], routes[0]
				clean = routes[1]
				if slow.Proc == head || clean.Proc == head || slow.Proc == clean.Proc {
					t.Fatalf("head on p%d, replicas on p%d and p%d: each must sit behind its own link", head, slow.Proc, clean.Proc)
				}
				plan.SetLinkFaults(simnet.NodeID(fmt.Sprintf("e00/p%d", head)), simnet.NodeID(fmt.Sprintf("e00/p%d", slow.Proc)),
					simnet.LinkFaults{Jitter: 8 * time.Millisecond})
			})
			var best string
			for _, r := range fed.AdaptationRoutes() {
				if r.Best {
					best = r.Candidate
				}
			}
			if best != clean.Candidate {
				t.Fatalf("chooser prefers %q, want %q behind the clean link: %+v", best, clean.Candidate, fed.AdaptationRoutes())
			}
			if !maps.Equal(got, want) {
				t.Fatalf("routed around the jitter: %d distinct results, the bare engine %d (or other counts)", len(got), len(want))
			}
		})
	}
}

// TestFragmentChainMatchesBareEngine: a static three-fragment chain on
// the production engine, its aggregate in the last fragment, delivers
// what one bare engine computes — every boundary hands over whole
// batches, in order, and loses nothing.
func TestFragmentChainMatchesBareEngine(t *testing.T) {
	spec := chainQuery("agg")
	spec.Agg = &engine.AggSpec{Fn: operator.AggMax, ValueField: "price", GroupField: "symbol", Window: stream.CountWindow(8)}
	want := bareChainResults(t, spec)
	if len(want) == 0 {
		t.Fatal("the bare engine produced no results")
	}
	if got := runChain(t, spec, fullFactory, false, nil); !maps.Equal(got, want) {
		t.Fatalf("chain delivered %d distinct results, the bare engine %d (or other counts)", len(got), len(want))
	}
}

// TestTupleRoutingFeedbackLoop drives the full AM loop: replicated
// placement, per-tuple Choose, trace completions measured into Report,
// and the observable surfaces (routing table, sspd_am_* families,
// am.route journal).
func TestTupleRoutingFeedbackLoop(t *testing.T) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	fed := startFederation(t, net, Options{
		Strategy:           dissemination.Balanced,
		Fanout:             2,
		FragmentsPerQuery:  3,
		EnableTupleRouting: true,
	}, 1, 4, miniFactory)
	if _, err := fed.EnableTracing(1); err != nil {
		t.Fatal(err)
	}
	defer trace.SetActive(nil)
	if err := fed.SubmitQueryTo(chainQuery("q"), "e00", nil); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)

	// The routing table knows both candidates before any traffic.
	routes := fed.AdaptationRoutes()
	if len(routes) != 2 {
		t.Fatalf("AdaptationRoutes = %+v, want 2 candidates", routes)
	}
	for _, r := range routes {
		if r.Query != "q" || r.Boundary != "q#1" {
			t.Fatalf("unexpected route %+v", r)
		}
	}

	tick := workload.NewTicker(7, 200, 1.2)
	for i := 0; i < 4; i++ {
		if err := fed.Publish("quotes", tick.Batch(100)); err != nil {
			t.Fatal(err)
		}
		if !net.Quiesce(5 * time.Second) {
			t.Fatal("quiesce")
		}
	}

	// Trace completions fed measured delays back into the choosers: a
	// best candidate emerged and the am.route journal recorded it.
	routes = fed.AdaptationRoutes()
	bests := 0
	for _, r := range routes {
		if r.Best {
			bests++
			if r.DelaySeconds <= 0 {
				t.Fatalf("best candidate %s has no measured delay: %+v", r.Candidate, r)
			}
		}
	}
	if bests != 1 {
		t.Fatalf("%d best candidates in %+v, want exactly 1", bests, routes)
	}
	if evs := fed.Journal().Since(0, "am.route"); len(evs) == 0 {
		t.Fatal("no am.route journal event after measured traffic")
	}

	// Both metric families surfaces agree the loop ran.
	var sb strings.Builder
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"sspd_am_reports_total",
		"sspd_am_routed_total",
		"sspd_am_reorders_total",
		`sspd_am_candidate_delay_seconds{boundary="q#1",candidate="q#1@r0",query="q"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "sspd_am_reports_total 0") {
		t.Error("sspd_am_reports_total stayed 0 — no delay ever fed back")
	}

	// AdaptOrdering sweeps count into the shared reorder counter.
	fed.AdaptOrdering(0)
	sb.Reset()
	if err := fed.MetricsRegistry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sspd_am_reorders_total") {
		t.Error("exposition lost sspd_am_reorders_total")
	}
}
