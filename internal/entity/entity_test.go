package entity

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// miniFactory builds synchronous engines so tests observe results
// deterministically after Quiesce.
func miniFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewMini(name, c)
}

type resultLog struct {
	mu  sync.Mutex
	got map[string]int
}

func newResultLog() *resultLog { return &resultLog{got: make(map[string]int)} }

func (r *resultLog) handle(queryID string, b stream.Batch) {
	r.mu.Lock()
	r.got[queryID] += len(b)
	r.mu.Unlock()
}

func (r *resultLog) count(q string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[q]
}

func newTestEntity(t *testing.T, nProcs int) (*Entity, *simnet.SimNet, *resultLog) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	e, err := New("e1", net, testCatalog(t), nProcs, miniFactory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	log := newResultLog()
	e.SetResultHandler(log.handle)
	return e, net, log
}

func filterSpec(id string, lo, hi float64) engine.QuerySpec {
	return engine.QuerySpec{
		ID:     id,
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: lo, Hi: hi, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 1000, Cost: 1},
		},
	}
}

func TestEntityConstruction(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	if _, err := New("", net, testCatalog(t), 1, nil); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("e", nil, testCatalog(t), 1, nil); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := New("e", net, nil, 1, nil); err == nil {
		t.Error("nil catalog accepted")
	}
	e, err := New("e", net, testCatalog(t), 0, nil) // clamps to 1
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if n := len(e.ProcLoads()); n != 1 {
		t.Errorf("procs = %d", n)
	}
}

func TestEntitySingleFragmentQuery(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	if err := e.PlaceQuery(filterSpec("q1", 0, 100), 1); err != nil {
		t.Fatal(err)
	}
	e.Ingest(quote(1, "ibm", 50, 5))
	e.Ingest(quote(2, "ibm", 500, 5)) // filtered out
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if log.count("q1") != 1 {
		t.Errorf("results = %d, want 1", log.count("q1"))
	}
	if e.Delivered.Value() != 1 {
		t.Errorf("Delivered = %d", e.Delivered.Value())
	}
}

func TestEntityFragmentChainAcrossProcessors(t *testing.T) {
	e, net, log := newTestEntity(t, 3)
	spec := engine.QuerySpec{
		ID:     "q1",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 100, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 10, Cost: 1},
			{KeyField: "symbol", Keys: []string{"ibm"}, Cost: 1},
		},
	}
	if err := e.PlaceQuery(spec, 3); err != nil {
		t.Fatal(err)
	}
	placement, ok := e.QueryPlacement("q1")
	if !ok || len(placement) != 3 {
		t.Fatalf("placement = %v", placement)
	}
	distinct := map[int]bool{}
	for _, p := range placement {
		distinct[p] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("fragments not spread: %v", placement)
	}
	e.Ingest(quote(1, "ibm", 50, 5))   // passes all three
	e.Ingest(quote(2, "ibm", 50, 500)) // fails volume (fragment 2)
	e.Ingest(quote(3, "goog", 50, 5))  // fails symbol (fragment 3)
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if log.count("q1") != 1 {
		t.Errorf("results = %d, want 1", log.count("q1"))
	}
	// Fragment chaining crossed the network: intra-entity links carry
	// addressed feed messages.
	if net.Traffic().TotalMessages() == 0 {
		t.Error("no intra-entity traffic for a spread query")
	}
}

func TestEntityJoinQuery(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	spec := engine.QuerySpec{
		ID:     "qj",
		Source: "quotes",
		Join: &engine.JoinSpec{
			Stream: "trades", LeftKey: "symbol", RightKey: "symbol",
			Window: stream.CountWindow(10),
		},
	}
	if err := e.PlaceQuery(spec, 2); err != nil { // join never splits
		t.Fatal(err)
	}
	e.Ingest(quote(1, "ibm", 50, 5))
	e.Ingest(stream.NewTuple("trades", 2, time.Unix(2, 0).UTC(),
		stream.String("ibm"), stream.Int(100)))
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if log.count("qj") != 1 {
		t.Errorf("join results = %d, want 1", log.count("qj"))
	}
}

func TestEntityDuplicateAndBadQueries(t *testing.T) {
	e, _, _ := newTestEntity(t, 2)
	if err := e.PlaceQuery(filterSpec("q1", 0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceQuery(filterSpec("q1", 0, 1), 1); err == nil {
		t.Error("duplicate accepted")
	}
	if err := e.PlaceQuery(engine.QuerySpec{ID: "bad"}, 1); err == nil {
		t.Error("invalid spec accepted")
	}
	if err := e.PlaceQuery(engine.QuerySpec{ID: "q2", Source: "nostream"}, 1); err == nil {
		t.Error("unknown stream accepted")
	}
	// Failed placement must not leave fragments behind.
	if got := e.Queries(); len(got) != 1 || got[0] != "q1" {
		t.Errorf("queries = %v", got)
	}
}

func TestEntityRemoveQuery(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	if err := e.PlaceQuery(filterSpec("q1", 0, 100), 2); err != nil {
		t.Fatal(err)
	}
	spec, err := e.RemoveQuery("q1")
	if err != nil {
		t.Fatal(err)
	}
	if spec.ID != "q1" {
		t.Errorf("returned spec = %+v", spec)
	}
	if _, err := e.RemoveQuery("q1"); err == nil {
		t.Error("double remove accepted")
	}
	// No more deliveries after removal.
	e.Ingest(quote(1, "ibm", 50, 5))
	net.Quiesce(time.Second)
	if log.count("q1") != 0 {
		t.Errorf("removed query delivered %d", log.count("q1"))
	}
	// Migration round-trip: re-place the returned spec.
	if err := e.PlaceQuery(spec, 1); err != nil {
		t.Fatal(err)
	}
	e.Ingest(quote(2, "ibm", 50, 5))
	net.Quiesce(time.Second)
	if log.count("q1") != 1 {
		t.Errorf("re-placed query delivered %d", log.count("q1"))
	}
}

func TestEntityDelegationSpreadsStreams(t *testing.T) {
	e, _, _ := newTestEntity(t, 3)
	d1 := e.Delegation("quotes")
	d2 := e.Delegation("trades")
	if d1 == d2 {
		t.Errorf("both streams delegated to %s", d1)
	}
	// Stable assignment.
	if e.Delegation("quotes") != d1 {
		t.Error("delegation not stable")
	}
}

func TestEntityInterestAggregation(t *testing.T) {
	e, _, _ := newTestEntity(t, 2)
	if err := e.PlaceQuery(filterSpec("q1", 0, 100), 1); err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceQuery(filterSpec("q2", 500, 600), 1); err != nil {
		t.Fatal(err)
	}
	terms := e.Interest("quotes")
	if len(terms) != 2 {
		t.Fatalf("interest terms = %d", len(terms))
	}
	if got := e.Interest("nostream"); got != nil {
		t.Errorf("interest for unknown stream = %v", got)
	}
	if e.Load() <= 0 {
		t.Error("load not positive with queries placed")
	}
	if loads := e.ProcLoads(); len(loads) != 2 {
		t.Errorf("proc loads = %v", loads)
	}
}

// TestEntityInterestFollowsPlacements holds the interests kept per placed
// query to what QuerySpec.Interest computes from the placed specs, per
// input stream and in query-ID order, across place and remove.
func TestEntityInterestFollowsPlacements(t *testing.T) {
	e, _, _ := newTestEntity(t, 2)
	cat := testCatalog(t)
	placed := map[string]engine.QuerySpec{}
	check := func(step string) {
		t.Helper()
		for _, s := range []string{"quotes", "trades", "nostream"} {
			var want []string
			for _, id := range e.Queries() { // sorted
				spec := placed[id]
				sc, declared := cat.Lookup(s)
				if declared && (spec.Source == s || (spec.Join != nil && spec.Join.Stream == s)) {
					want = append(want, spec.Interest(s, sc).String())
				}
			}
			var got []string
			for _, in := range e.Interest(s) {
				got = append(got, in.String())
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Interest(%s) = %v, want %v", step, s, got, want)
			}
		}
	}
	place := func(spec engine.QuerySpec) {
		t.Helper()
		if err := e.PlaceQuery(spec, 2); err != nil {
			t.Fatal(err)
		}
		placed[spec.ID] = spec
		check("place " + spec.ID)
	}
	check("empty")
	place(filterSpec("q2", 500, 600))
	place(filterSpec("q1", 0, 100))
	place(engine.QuerySpec{ID: "qj", Source: "quotes",
		Filters: []engine.FilterSpec{{KeyField: "symbol", Keys: []string{"ibm"}}},
		Join: &engine.JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol",
			Window: stream.CountWindow(10)}})
	for _, id := range []string{"q2", "qj"} {
		if _, err := e.RemoveQuery(id); err != nil {
			t.Fatal(err)
		}
		delete(placed, id)
		check("remove " + id)
	}
	if got := e.Interest("quotes"); len(got) != 1 {
		t.Fatalf("one query left, Interest(quotes) = %v", got)
	}
}

// TestEntityInterestIntersectsRepeatedFields: two filter steps on one
// field register their intersection up the tree (the last step used to
// win, which was safe but relayed more than the query takes), steps that
// exclude each other register an interest that matches nothing.
func TestEntityInterestIntersectsRepeatedFields(t *testing.T) {
	e, _, _ := newTestEntity(t, 2)
	sc, _ := testCatalog(t).Lookup("quotes")
	narrow := engine.QuerySpec{ID: "narrow", Source: "quotes", Filters: []engine.FilterSpec{
		{Field: "price", Lo: 0, Hi: 50},
		{KeyField: "symbol", Keys: []string{"a", "b"}},
		{Field: "price", Lo: 40, Hi: 100},
		{KeyField: "symbol", Keys: []string{"b", "c"}},
	}}
	none := narrow
	none.ID = "none"
	none.Filters = append(none.Filters[:4:4], engine.FilterSpec{Field: "price", Lo: 60, Hi: 70})
	for _, spec := range []engine.QuerySpec{narrow, none} {
		if err := e.PlaceQuery(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	terms := e.Interest("quotes") // in query-ID order
	if len(terms) != 2 {
		t.Fatalf("interest terms = %v", terms)
	}
	if got := terms[0].Ranges["price"]; got != (stream.Range{Lo: 40, Hi: 50}) {
		t.Errorf("narrow registered price %+v, want [40,50]", got)
	}
	if got := terms[0].Keys["symbol"]; len(got) != 1 || !got["b"] {
		t.Errorf("narrow registered symbol %v, want {b}", got)
	}
	// 10 of 1000 price units × 1 of 100 symbols.
	if got := terms[0].Selectivity(sc); got < 0.99e-4 || got > 1.01e-4 {
		t.Errorf("narrow interest selectivity = %v, want 1e-4", got)
	}
	if !terms[1].Ranges["price"].Empty() || terms[1].Selectivity(sc) != 0 {
		t.Errorf("none registered %v, want an empty price range", terms[1])
	}
	for _, price := range []float64{45, 65} {
		if terms[1].Matches(sc, quote(1, "b", price, 1)) {
			t.Errorf("none's interest accepts price %v", price)
		}
	}
}

func TestEntityIngestBatch(t *testing.T) {
	e, net, log := newTestEntity(t, 2)
	if err := e.PlaceQuery(filterSpec("q1", 0, 1000), 1); err != nil {
		t.Fatal(err)
	}
	batch := stream.Batch{
		quote(1, "a", 1, 1),
		quote(2, "b", 2, 1),
		stream.NewTuple("trades", 3, time.Unix(3, 0).UTC(),
			stream.String("a"), stream.Int(1)),
	}
	e.IngestBatch(batch)
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if log.count("q1") != 2 {
		t.Errorf("batch results = %d, want 2", log.count("q1"))
	}
}

func TestEntityCloseStopsIngest(t *testing.T) {
	e, _, log := newTestEntity(t, 1)
	if err := e.PlaceQuery(filterSpec("q1", 0, 1000), 1); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	e.Ingest(quote(1, "a", 1, 1))
	if log.count("q1") != 0 {
		t.Error("closed entity still delivering")
	}
	if err := e.PlaceQuery(filterSpec("q2", 0, 1), 1); err == nil {
		t.Error("place after close accepted")
	}
}

// TestPlaceQueryRacingClose: placement registers fragments outside
// Entity.mu, so Close can stop the engines between two fragments'
// registrations. The placement then fails and rolls back against
// engines that are closing or closed; it must return, not wait for a
// stopped shard.
func TestPlaceQueryRacingClose(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		net := simnet.NewSim(nil)
		e, err := New("e1", net, testCatalog(t), 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				if e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), 0, 100), 2) != nil {
					return
				}
			}
		}()
		time.Sleep(time.Duration(iter%10) * 50 * time.Microsecond)
		e.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: PlaceQuery never returned after Close", iter)
		}
		net.Close()
	}
}

func TestEntityWithFullEngine(t *testing.T) {
	// The same scenario through the production engine.
	net := simnet.NewSim(nil)
	defer net.Close()
	e, err := New("e1", net, testCatalog(t), 2, nil) // default production engine
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	log := newResultLog()
	e.SetResultHandler(log.handle)
	if err := e.PlaceQuery(filterSpec("q1", 0, 100), 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Ingest(quote(uint64(i), "ibm", 50, 5))
	}
	deadline := time.Now().Add(2 * time.Second)
	for log.count("q1") < 50 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := log.count("q1"); got != 50 {
		t.Errorf("full-engine results = %d, want 50", got)
	}
}

func TestPlaceQueryAdaptiveCorrectness(t *testing.T) {
	e, net, log := newTestEntity(t, 3)
	spec := engine.QuerySpec{
		ID:     "qa",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 100, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 10, Cost: 1},
			{KeyField: "symbol", Keys: []string{"ibm"}, Cost: 1},
		},
	}
	if err := e.PlaceQueryAdaptive(spec, 3, 2); err != nil {
		t.Fatal(err)
	}
	// Replicated placement: 1 + 2 + 1 = 4 registrations.
	placement, ok := e.QueryPlacement("qa")
	if !ok || len(placement) != 4 {
		t.Fatalf("placement = %v", placement)
	}
	for i := 0; i < 30; i++ {
		e.Ingest(quote(uint64(i), "ibm", 50, 5)) // passes everything
	}
	e.Ingest(quote(99, "ibm", 50, 500)) // fails volume in the middle stage
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if got := log.count("qa"); got != 30 {
		t.Fatalf("results = %d, want exactly 30 (no duplication, no loss)", got)
	}
	// Removal cleans up every replica.
	if _, err := e.RemoveQuery("qa"); err != nil {
		t.Fatal(err)
	}
	e.Ingest(quote(200, "ibm", 50, 5))
	net.Quiesce(time.Second)
	if got := log.count("qa"); got != 30 {
		t.Fatalf("results after removal = %d", got)
	}
}

func TestPlaceQueryAdaptiveAvoidsLoadedReplica(t *testing.T) {
	e, net, log := newTestEntity(t, 3)
	spec := engine.QuerySpec{
		ID:     "qa",
		Source: "quotes",
		Filters: []engine.FilterSpec{
			{Field: "price", Lo: 0, Hi: 1000, Cost: 1},
			{Field: "volume", Lo: 0, Hi: 1000, Cost: 1},
			{KeyField: "symbol", Keys: []string{"ibm", "msft", "goog"}, Cost: 1},
		},
	}
	if err := e.PlaceQueryAdaptive(spec, 3, 2); err != nil {
		t.Fatal(err)
	}
	placement, _ := e.QueryPlacement("qa")
	// Flattened layout: [frag0, frag1@r0, frag1@r1, frag2].
	replicaA, replicaB := placement[1], placement[2]
	// Load replica A's processor with heavy dummy queries.
	for i := 0; i < 5; i++ {
		dummy := filterSpec(fmt.Sprintf("heavy%d", i), 0, 1)
		dummy.Load = 50
		// Place directly on replica A's engine to weigh it down.
		if err := e.procs[replicaA].eng.Register(dummy, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		e.Ingest(quote(uint64(i), "ibm", 50, 5))
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if got := log.count("qa"); got != 200 {
		t.Fatalf("results = %d, want 200", got)
	}
	// The middle fragment ran mostly on the light replica.
	miniA := e.procs[replicaA].eng.(*engine.MiniEngine)
	miniB := e.procs[replicaB].eng.(*engine.MiniEngine)
	servedA := miniA.Results("qa#1@r0")
	servedB := miniB.Results("qa#1@r1")
	if servedA+servedB != 200 {
		t.Fatalf("replica results %d+%d != 200", servedA, servedB)
	}
	if servedB <= servedA*3 {
		t.Errorf("adaptive routing did not avoid the loaded replica: A=%d B=%d", servedA, servedB)
	}
}

// Queries returns the IDs of placed queries, sorted.
func (e *Entity) Queries() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
