package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/dissemination"
	"sspd/internal/engine"
	"sspd/internal/entity"
	"sspd/internal/querygraph"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/workload"
)

func miniFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewMini(name, c)
}

// bothEngines is the engine axis of the robustness tests: the
// synchronous oracle and the shipped shard engine, at two shards so one
// query's work is split across goroutines.
var bothEngines = []struct {
	name    string
	factory entity.EngineFactory
}{
	{"mini", miniFactory},
	{"shard", func(name string, c *stream.Catalog) engine.Processor { return engine.NewShard(name, c, 2) }},
}

// drainAll settles the network and drains every entity's engines, twice,
// so a result that needs one more network hop after its shard's run has
// landed too. A MiniEngine has nothing to drain.
func drainAll(fed *Federation) {
	for round := 0; round < 2; round++ {
		fed.Settle(2 * time.Second)
		fed.mu.Lock()
		ents := make([]*entity.Entity, 0, len(fed.entities))
		for _, en := range fed.entities {
			ents = append(ents, en.ent)
		}
		fed.mu.Unlock()
		for _, ent := range ents {
			for i := range ent.ProcLoads() {
				if d, ok := ent.Proc(i).(interface{ Drain(time.Duration) bool }); ok {
					d.Drain(2 * time.Second)
				}
			}
		}
	}
}

// newTestFederation builds a started federation: one quotes source,
// nEntities entities on a line, synchronous engines.
func newTestFederation(t *testing.T, nEntities int) (*Federation, *simnet.SimNet) {
	t.Helper()
	return newTestFederationOn(t, nEntities, miniFactory)
}

// newTestFederationOn is newTestFederation on factory's engines, with a
// trades source beside the quotes.
func newTestFederationOn(t *testing.T, nEntities int, factory entity.EngineFactory) (*Federation, *simnet.SimNet) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	opts := Options{Strategy: dissemination.Locality, Fanout: 3}
	return startFederation(t, net, opts, nEntities, 2, factory, "quotes", "trades"), net
}

// testSources are the streams a test federation can carry: where each
// source sits and its nominal rate.
var testSources = map[string]struct {
	pos  simnet.Point
	rate StreamRate
}{
	"quotes": {simnet.Point{}, StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}},
	"trades": {simnet.Point{X: 5}, StreamRate{TuplesPerSec: 500, BytesPerTuple: 40}},
}

// startFederation builds and starts a federation on net: a source for
// each of streams (quotes alone when none is named), then n entities
// e00, e01, … on a line at X = 10, 20, …, each of procs processors
// running factory's engine. The federation closes when the test ends.
func startFederation(t *testing.T, net simnet.Transport, opts Options, n, procs int,
	factory entity.EngineFactory, streams ...string) *Federation {
	t.Helper()
	fed := buildFederation(t, net, opts, n, procs, factory, streams...)
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	return fed
}

// buildFederation is startFederation without the Start, for tests that
// set the federation's unexported tuning first.
func buildFederation(t *testing.T, net simnet.Transport, opts Options, n, procs int,
	factory entity.EngineFactory, streams ...string) *Federation {
	t.Helper()
	fed, err := New(net, workload.Catalog(100, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if len(streams) == 0 {
		streams = []string{"quotes"}
	}
	for _, s := range streams {
		if err := fed.AddSource(s, testSources[s].pos, testSources[s].rate); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if err := fed.AddEntity(fmt.Sprintf("e%02d", i), simnet.Point{X: float64(10 + i*10)}, procs, factory); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

// edgeWeight reads the weight of edge {a,b} (0 when absent).
func edgeWeight(g *querygraph.Graph, a, b querygraph.VertexID) float64 {
	w := 0.0
	g.Neighbors(a, func(nb querygraph.VertexID, x float64) {
		if nb == b {
			w = x
		}
	})
	return w
}

func priceQuery(id string, lo, hi float64, symbols ...string) engine.QuerySpec {
	spec := engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: lo, Hi: hi, Cost: 1},
		},
		Load: 5,
	}
	if len(symbols) > 0 {
		spec.Filters = append(spec.Filters,
			engine.FilterSpec{KeyField: "symbol", Keys: symbols, Cost: 1})
	}
	return spec
}

func TestFederationLifecycleErrors(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	catalog := workload.Catalog(10, 10)
	if _, err := New(nil, catalog, Options{}); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New(net, nil, Options{}); err == nil {
		t.Error("nil catalog accepted")
	}
	fed, err := New(net, catalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.Start(); err == nil {
		t.Error("start without sources accepted")
	}
	if err := fed.AddSource("nostream", simnet.Point{}, StreamRate{}); err == nil {
		t.Error("unknown stream source accepted")
	}
	if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{}); err != nil {
		t.Fatal(err)
	}
	if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{}); err == nil {
		t.Error("duplicate source accepted")
	}
	if err := fed.Start(); err == nil {
		t.Error("start without entities accepted")
	}
	if err := fed.AddEntity("e1", simnet.Point{}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.AddEntity("e1", simnet.Point{}, 1, miniFactory); err == nil {
		t.Error("duplicate entity accepted")
	}
	if err := fed.Publish("quotes", nil); err == nil {
		t.Error("publish before start accepted")
	}
	if _, err := fed.SubmitQuery(priceQuery("q", 0, 1), simnet.Point{}, nil); err == nil {
		t.Error("submit before start accepted")
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err == nil {
		t.Error("double start accepted")
	}
	if err := fed.AddSource("trades", simnet.Point{}, StreamRate{}); err == nil {
		t.Error("source after start accepted")
	}
	if err := fed.AddEntity("e2", simnet.Point{}, 1, miniFactory); err == nil {
		t.Error("entity after start accepted")
	}
}

func TestFederationEndToEnd(t *testing.T) {
	fed, net := newTestFederation(t, 4)
	var mu sync.Mutex
	results := 0
	entityID, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{X: 15},
		func(stream.Tuple) { mu.Lock(); results++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	if entityID == "" {
		t.Fatal("no entity chosen")
	}
	if got, ok := fed.QueryEntity("q1"); !ok || got != entityID {
		t.Errorf("QueryEntity = %s/%v", got, ok)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after submit")
	}
	tick := workload.NewTicker(1, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(50)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce after publish")
	}
	mu.Lock()
	got := results
	mu.Unlock()
	if got != 50 {
		t.Errorf("results = %d, want 50 (unbounded price filter)", got)
	}
	if fed.NumQueries() != 1 {
		t.Errorf("queries = %d", fed.NumQueries())
	}
	// Charges accrue to the hosting entity.
	if fed.Ledger().Charge(entityID) <= 0 {
		t.Error("no charge accrued")
	}
}

// TestFederationMatchesBareEngineOnNaN: the relay's early filter and the
// engine's own filter are one compiled predicate, so a federation
// delivers exactly what a bare engine fed the same batch does — also when
// a range-filtered field holds NaN or ±Inf. (While they were separate
// evaluators the relay put NaN in no range and the engine let it through
// every range: on four quotes, one priced NaN, a bare engine returned 4
// results and a one-entity federation 3.)
func TestFederationMatchesBareEngineOnNaN(t *testing.T) {
	spec := priceQuery("q", 0, 1000)
	at := time.Unix(1754000000, 0).UTC()
	var batch stream.Batch
	for i, price := range []float64{10, math.NaN(), 500, math.Inf(1), 990, math.Inf(-1), 1001} {
		batch = append(batch, stream.NewTuple("quotes", uint64(i+1), at,
			stream.String("S0000"), stream.Float(price), stream.Int(100)))
	}
	for name, factory := range map[string]entity.EngineFactory{"production": fullFactory, "mini": miniFactory} {
		t.Run(name, func(t *testing.T) {
			catalog := workload.Catalog(100, 20)
			var mu sync.Mutex
			collect := func(into *[]string) func(stream.Tuple) {
				return func(tu stream.Tuple) {
					mu.Lock()
					*into = append(*into, tu.String())
					mu.Unlock()
				}
			}
			// Unregister returns once everything handed over is
			// processed and emitted (Processor contract, point 4).
			var want, got []string
			bare := factory("bare", catalog)
			defer bare.Close()
			if err := bare.Register(spec, collect(&want)); err != nil {
				t.Fatal(err)
			}
			if err := bare.FeedQueryBatch(spec.ID, batch); err != nil {
				t.Fatal(err)
			}
			if _, err := bare.Unregister(spec.ID); err != nil {
				t.Fatal(err)
			}

			net := simnet.NewSim(nil)
			t.Cleanup(func() { net.Close() })
			fed := startFederation(t, net, Options{}, 1, 1, factory)
			if err := fed.SubmitQueryTo(spec, "e00", collect(&got)); err != nil {
				t.Fatal(err)
			}
			fed.Settle(2 * time.Second)
			if err := fed.Publish("quotes", batch); err != nil {
				t.Fatal(err)
			}
			fed.Settle(2 * time.Second)
			if err := fed.RemoveQuery(spec.ID); err != nil {
				t.Fatal(err)
			}

			mu.Lock()
			defer mu.Unlock()
			sort.Strings(want)
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Fatalf("federation delivered %v, a bare engine %v", got, want)
			}
			if len(want) != 3 {
				t.Fatalf("both returned %v; want the three finite prices in [0,1000]", want)
			}
		})
	}
}

func TestFederationEarlyFilteringAcrossLayers(t *testing.T) {
	fed, net := newTestFederation(t, 4)
	// A very narrow query: interest registration should suppress most
	// tuples near the source.
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 10, "S0000"), simnet.Point{X: 15}, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	net.Traffic().Reset()
	tick := workload.NewTicker(2, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(200)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	narrow := net.Traffic().TotalBytes()

	// Same workload with a match-everything query added: much more
	// traffic flows.
	if _, err := fed.SubmitQuery(priceQuery("q2", 0, 1000), simnet.Point{X: 15}, nil); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	net.Traffic().Reset()
	tick2 := workload.NewTicker(2, 100, 1.2)
	if err := fed.Publish("quotes", tick2.Batch(200)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	wide := net.Traffic().TotalBytes()
	if narrow*2 >= wide {
		t.Errorf("early filtering ineffective: narrow=%d wide=%d", narrow, wide)
	}
}

func TestFederationRemoveQuery(t *testing.T) {
	fed, net := newTestFederation(t, 2)
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.RemoveQuery("q1"); err != nil {
		t.Fatal(err)
	}
	if err := fed.RemoveQuery("q1"); err == nil {
		t.Error("double remove accepted")
	}
	if fed.NumQueries() != 0 {
		t.Error("query count after removal")
	}
	_ = net
}

func TestFederationDuplicateSubmit(t *testing.T) {
	fed, _ := newTestFederation(t, 2)
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1), simnet.Point{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.SubmitQuery(priceQuery("q1", 0, 1), simnet.Point{}, nil); err == nil {
		t.Error("duplicate submit accepted")
	}
	if err := fed.SubmitQueryTo(priceQuery("q1", 0, 1), "e00", nil); err == nil {
		t.Error("duplicate SubmitQueryTo accepted")
	}
	if err := fed.SubmitQueryTo(priceQuery("q2", 0, 1), "nope", nil); err == nil {
		t.Error("unknown entity accepted")
	}
}

func TestFederationMigration(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	var mu sync.Mutex
	results := 0
	entityID, err := fed.SubmitQuery(priceQuery("q1", 0, 1000), simnet.Point{},
		func(stream.Tuple) { mu.Lock(); results++; mu.Unlock() })
	if err != nil {
		t.Fatal(err)
	}
	target := ""
	for _, id := range fed.EntityIDs() {
		if id != entityID {
			target = id
			break
		}
	}
	if err := fed.MigrateQuery("q1", target); err != nil {
		t.Fatal(err)
	}
	if got, _ := fed.QueryEntity("q1"); got != target {
		t.Fatalf("query on %s, want %s", got, target)
	}
	// Self-migration is a no-op; unknowns error.
	if err := fed.MigrateQuery("q1", target); err != nil {
		t.Error("self migration errored")
	}
	if err := fed.MigrateQuery("zz", target); err == nil {
		t.Error("unknown query migration accepted")
	}
	if err := fed.MigrateQuery("q1", "zz"); err == nil {
		t.Error("unknown target migration accepted")
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	// The migrated query still produces results.
	tick := workload.NewTicker(3, 100, 1.2)
	if err := fed.Publish("quotes", tick.Batch(20)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	mu.Lock()
	got := results
	mu.Unlock()
	if got != 20 {
		t.Errorf("post-migration results = %d, want 20", got)
	}
}

func TestFederationQueryGraphAndRebalance(t *testing.T) {
	fed, net := newTestFederation(t, 3)
	// Three co-interested queries piled onto one entity, three unrelated
	// ones also there: rebalancing should spread them with a low cut.
	syms := []string{"S0001", "S0002"}
	for i := 0; i < 3; i++ {
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("hot%d", i), 0, 500, syms...), "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		sym := fmt.Sprintf("S00%d0", i+1)
		if err := fed.SubmitQueryTo(priceQuery(fmt.Sprintf("cold%d", i), 600, 900, sym), "e00", nil); err != nil {
			t.Fatal(err)
		}
	}
	g := fed.QueryGraph()
	if g.NumVertices() != 6 {
		t.Fatalf("graph vertices = %d", g.NumVertices())
	}
	// Co-interested queries share edges.
	if edgeWeight(g, "hot0", "hot1") <= 0 {
		t.Error("no edge between co-interested queries")
	}
	old, ids := fed.Assignment()
	if len(ids) != 3 || len(old) != 6 {
		t.Fatalf("assignment = %v over %v", old, ids)
	}
	moved, err := fed.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("rebalance moved nothing off the overloaded entity")
	}
	// Load spread: e00 no longer hosts everything.
	now, _ := fed.Assignment()
	onE00 := 0
	for _, p := range now {
		if p == 0 {
			onE00++
		}
	}
	if onE00 == 6 {
		t.Error("all queries still on e00")
	}
	// Hot queries should stay together (their edges dominate).
	if now["hot0"] != now["hot1"] || now["hot1"] != now["hot2"] {
		t.Logf("hot queries split: %v (acceptable but suboptimal)", now)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
}

func TestFederationWithHeterogeneousEngines(t *testing.T) {
	// Half the entities run the production engine, half the mini engine — the
	// loose coupling means the federation cannot tell the difference.
	net := simnet.NewSim(nil)
	defer net.Close()
	catalog := workload.Catalog(50, 10)
	fed, err := New(net, catalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	if err := fed.AddSource("quotes", simnet.Point{}, StreamRate{TuplesPerSec: 100, BytesPerTuple: 60}); err != nil {
		t.Fatal(err)
	}
	if err := fed.AddEntity("full", simnet.Point{X: 10}, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.AddEntity("mini", simnet.Point{X: 20}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}
	for i, target := range []string{"full", "mini"} {
		id := fmt.Sprintf("q%d", i)
		tid := target
		if err := fed.SubmitQueryTo(priceQuery(id, 0, 1000), tid,
			func(stream.Tuple) { mu.Lock(); counts[tid]++; mu.Unlock() }); err != nil {
			t.Fatal(err)
		}
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	tick := workload.NewTicker(9, 50, 1.2)
	if err := fed.Publish("quotes", tick.Batch(30)); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	// The production engine needs a moment to drain.
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		f, m := counts["full"], counts["mini"]
		mu.Unlock()
		if f == 30 && m == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counts = full:%d mini:%d, want 30/30", f, m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOptionsEngineKinds: Options.Engine accepts exactly "", "shard"
// and "mini"; the two retired kinds are refused with an error that says
// where they went.
func TestOptionsEngineKinds(t *testing.T) {
	add := func(kind string) (*Federation, error) {
		net := simnet.NewSim(nil)
		t.Cleanup(func() { net.Close() })
		fed, err := New(net, workload.Catalog(10, 2), Options{Engine: kind})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fed.Close)
		return fed, fed.AddEntity("e", simnet.Point{X: 10}, 1, nil)
	}
	for kind, want := range map[string]string{"": "*engine.ShardEngine", "shard": "*engine.ShardEngine", "mini": "*engine.MiniEngine"} {
		fed, err := add(kind)
		if err != nil {
			t.Fatalf("Engine %q: %v", kind, err)
		}
		if got := fmt.Sprintf("%T", fed.entities["e"].ent.Proc(0)); got != want {
			t.Errorf("Engine %q built %s, want %s", kind, got, want)
		}
	}
	for kind, want := range map[string]string{"async": "removed", "sched": "removed", "turbo": "unknown"} {
		if _, err := add(kind); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Engine %q: err = %v, want one saying %q", kind, err, want)
		}
	}
}

func TestLedger(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewLedger(func() time.Time { return now })
	if err := l.Start("q1", "e1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Start("q1", "e1"); err == nil {
		t.Error("double start accepted")
	}
	now = now.Add(10 * time.Second)
	if got := l.Charge("e1"); got != 10*time.Second {
		t.Errorf("in-flight charge = %v", got)
	}
	if err := l.Move("q1", "e2"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Second)
	if err := l.Stop("q1"); err != nil {
		t.Fatal(err)
	}
	if err := l.Stop("q1"); err == nil {
		t.Error("double stop accepted")
	}
	if err := l.Move("q1", "e3"); err == nil {
		t.Error("move of stopped query accepted")
	}
	if got := l.Charge("e1"); got != 10*time.Second {
		t.Errorf("e1 charge = %v", got)
	}
	if got := l.Charge("e2"); got != 5*time.Second {
		t.Errorf("e2 charge = %v", got)
	}
	charges := l.Charges()
	if len(charges) != 2 || charges[0].Entity != "e1" || charges[1].Entity != "e2" {
		t.Errorf("charges = %v", charges)
	}
	if l.ActiveQueries() != 0 {
		t.Error("active count")
	}
}

func TestBuildQueryGraphEdges(t *testing.T) {
	catalog := workload.Catalog(100, 10)
	rates := map[string]StreamRate{"quotes": {TuplesPerSec: 1000, BytesPerTuple: 100}}
	// Two overlapping queries and one disjoint.
	specs := []engine.QuerySpec{
		priceQuery("a", 0, 100),
		priceQuery("b", 50, 150),
		priceQuery("c", 500, 600),
	}
	g := BuildQueryGraph(specs, catalog, rates)
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Overlap [50,100] = 5% of domain × 100 KB/s = 5000 B/s.
	if got := edgeWeight(g, "a", "b"); got != 5000 {
		t.Errorf("edge a-b = %v, want 5000", got)
	}
	if got := edgeWeight(g, "a", "c"); got != 0 {
		t.Errorf("edge a-c = %v, want 0", got)
	}
	// Rates missing => no edges.
	g2 := BuildQueryGraph(specs, catalog, nil)
	if edgeWeight(g2, "a", "b") != 0 {
		t.Error("edge without rate info")
	}
	if StreamRate(rates["quotes"]).BytesPerSec() != 100000 {
		t.Error("BytesPerSec")
	}
}

func TestFederationDisseminationTreeExposed(t *testing.T) {
	fed, _ := newTestFederation(t, 3)
	tr := fed.DisseminationTree("quotes")
	if tr == nil {
		t.Fatal("no tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if fed.DisseminationTree("nostream") != nil {
		t.Error("tree for unknown stream")
	}
	root, h := fed.Coordinator().Root()
	if root == "" || h < 1 {
		t.Error("coordinator tree empty")
	}
	if fed.EntityLoad("nope") != 0 {
		t.Error("load of unknown entity")
	}
}

// TestFederationJoinInterestKeepsPartners: a join's filter on a field
// both inputs declare resolves post-join to the source's field (l_), so
// it must not narrow what the entity registers for the joined stream — a
// fill priced outside the filter is still a partner of the quotes inside
// it. (QuerySpec.Interest used to constrain both inputs by the name, the
// relay suppressed those fills, and the federation delivered half of
// what a bare engine does.)
func TestFederationJoinInterestKeepsPartners(t *testing.T) {
	catalog := stream.NewCatalog()
	for _, sc := range []*stream.Schema{workload.Quotes(100), stream.MustSchema("fills",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000})} {
		if err := catalog.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	spec := engine.QuerySpec{ID: "j", Source: "quotes",
		Join:    &engine.JoinSpec{Stream: "fills", LeftKey: "symbol", RightKey: "symbol", Window: stream.CountWindow(64)},
		Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 500}}}
	at := time.Unix(1754000000, 0).UTC()
	var fills, quotes stream.Batch
	for i := 0; i < 8; i++ {
		sym := stream.String(fmt.Sprintf("S%04d", i%4))
		fills = append(fills, stream.NewTuple("fills", uint64(i+1), at, sym, stream.Float(float64(100+120*i))))
		quotes = append(quotes, stream.NewTuple("quotes", uint64(i+1), at, sym, stream.Float(float64(130*i)), stream.Int(1)))
	}
	var mu sync.Mutex
	collect := func(into *[]string) func(stream.Tuple) {
		return func(tu stream.Tuple) {
			mu.Lock()
			*into = append(*into, render(tu))
			mu.Unlock()
		}
	}
	var want, got []string
	bare := engine.NewMini("bare", catalog)
	defer bare.Close()
	if err := bare.Register(spec, collect(&want)); err != nil {
		t.Fatal(err)
	}
	bare.IngestBatch(fills)
	bare.IngestBatch(quotes)

	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := New(net, catalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	for _, s := range []string{"quotes", "fills"} {
		if err := fed.AddSource(s, simnet.Point{}, StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.AddEntity("e00", simnet.Point{X: 10}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(spec, "e00", collect(&got)); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	for _, b := range []stream.Batch{fills, quotes} { // fills first: every quote finds its partners
		if err := fed.Publish(b[0].Stream, b); err != nil {
			t.Fatal(err)
		}
		fed.Settle(2 * time.Second)
	}

	mu.Lock()
	defer mu.Unlock()
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != 8 {
		t.Fatalf("bare engine returned %d results, want 8: each of 4 quotes in range joins 2 fills", len(want))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("federation delivered %d results, a bare engine %d: %v", len(got), len(want), got)
	}
}

// TestFederationJoinInterestKeepsEvictions: a join's filters run after
// the join, so a quote they reject still enters the join window and, in
// a count window, evicts the quotes before it. Four quotes priced 100,
// 200, 900 and 950 leave the last two in a two-row window, which the one
// fill joins and the price filter then rejects: no result. (The join
// used to register its filters as the quotes' interest, the relay kept
// the two expensive quotes out of the window, and the federation
// returned 2 results where a bare engine returns 0.)
func TestFederationJoinInterestKeepsEvictions(t *testing.T) {
	catalog := stream.NewCatalog()
	for _, sc := range []*stream.Schema{workload.Quotes(100), stream.MustSchema("fills",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000})} {
		if err := catalog.Register(sc); err != nil {
			t.Fatal(err)
		}
	}
	spec := engine.QuerySpec{ID: "j", Source: "quotes",
		Join:    &engine.JoinSpec{Stream: "fills", LeftKey: "symbol", RightKey: "symbol", Window: stream.CountWindow(2)},
		Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 500}}}
	at := time.Unix(1754000000, 0).UTC()
	sym := stream.String("S0001")
	var quotes stream.Batch
	for i, price := range []float64{100, 200, 900, 950} {
		quotes = append(quotes, stream.NewTuple("quotes", uint64(i+1), at, sym, stream.Float(price), stream.Int(1)))
	}
	fills := stream.Batch{stream.NewTuple("fills", 1, at, sym, stream.Float(300))}

	var mu sync.Mutex
	var bareN, fedN int
	bare := engine.NewMini("bare", catalog)
	defer bare.Close()
	if err := bare.Register(spec, func(stream.Tuple) { mu.Lock(); bareN++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	bare.IngestBatch(quotes)
	bare.IngestBatch(fills)

	net := simnet.NewSim(nil)
	defer net.Close()
	fed, err := New(net, catalog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	for _, s := range []string{"quotes", "fills"} {
		if err := fed.AddSource(s, simnet.Point{}, StreamRate{TuplesPerSec: 1000, BytesPerTuple: 60}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.AddEntity("e00", simnet.Point{X: 10}, 1, miniFactory); err != nil {
		t.Fatal(err)
	}
	if err := fed.Start(); err != nil {
		t.Fatal(err)
	}
	if err := fed.SubmitQueryTo(spec, "e00", func(stream.Tuple) { mu.Lock(); fedN++; mu.Unlock() }); err != nil {
		t.Fatal(err)
	}
	fed.Settle(2 * time.Second)
	for _, b := range []stream.Batch{quotes, fills} {
		if err := fed.Publish(b[0].Stream, b); err != nil {
			t.Fatal(err)
		}
		fed.Settle(2 * time.Second)
	}

	mu.Lock()
	defer mu.Unlock()
	if bareN != 0 {
		t.Fatalf("bare engine returned %d results, want 0: the fill's partners are the quotes priced 900 and 950", bareN)
	}
	if fedN != bareN {
		t.Fatalf("federation delivered %d results, a bare engine %d", fedN, bareN)
	}
}
