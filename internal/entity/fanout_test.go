package entity

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

// Tests of the delegation fan-out (DESIGN.md §13): one batch per hosting
// processor, shared by the head fragments whose gates let it through
// unchanged.

// perQueryEngine hides every optional capability of the engine it wraps
// except batch registration and Drain, so the entity serves it with the
// per-query loop: one FeedQueryBatch per head fragment — the fan-out's
// reference behaviour. (Without RegisterBatch a chained fragment would
// feed the next one a ring slot per result, and outrun it.)
type perQueryEngine struct {
	engine.Processor
	engine.BatchRegistrar
	drain func(time.Duration) bool
}

func (e perQueryEngine) Drain(d time.Duration) bool { return e.drain(d) }

func perQueryFactory(name string, c *stream.Catalog) engine.Processor {
	sh := engine.NewShard(name, c, 2)
	return perQueryEngine{Processor: sh, BatchRegistrar: sh, drain: sh.Drain}
}

func groupedFactory(name string, c *stream.Catalog) engine.Processor {
	return engine.NewShard(name, c, 2)
}

// loopNet delivers synchronously on the sender's goroutine.
type loopNet struct {
	mu       sync.RWMutex
	handlers map[simnet.NodeID]simnet.Handler
	traffic  *simnet.Traffic
}

func newLoopNet() *loopNet {
	return &loopNet{handlers: make(map[simnet.NodeID]simnet.Handler), traffic: simnet.NewTraffic()}
}

func (n *loopNet) Register(id simnet.NodeID, h simnet.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
	return nil
}

func (n *loopNet) Deregister(id simnet.NodeID) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.handlers, id)
	return nil
}

func (n *loopNet) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	n.mu.RLock()
	h := n.handlers[to]
	n.mu.RUnlock()
	if h == nil {
		return simnet.ErrUnknownNode{ID: to}
	}
	h(simnet.Message{From: from, To: to, Kind: kind, Payload: payload})
	return nil
}

func (n *loopNet) Traffic() *simnet.Traffic { return n.traffic }
func (n *loopNet) Close() error             { return nil }

// seqLog records every result's sequence number per query.
type seqLog struct {
	mu  sync.Mutex
	got map[string][]uint64
}

func (l *seqLog) handle(q string, b stream.Batch) {
	l.mu.Lock()
	if l.got == nil {
		l.got = make(map[string][]uint64)
	}
	for _, t := range b {
		l.got[q] = append(l.got[q], t.Seq)
	}
	l.mu.Unlock()
}

// multisets returns each query's results as a sorted multiset.
func (l *seqLog) multisets() map[string][]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]uint64, len(l.got))
	for q, seqs := range l.got {
		s := append([]uint64(nil), seqs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[q] = s
	}
	return out
}

func newFanoutEntity(t *testing.T, nProcs int, factory EngineFactory) (*Entity, *seqLog) {
	t.Helper()
	e, err := New("e1", newLoopNet(), testCatalog(t), nProcs, factory)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	log := &seqLog{}
	e.SetResultHandler(log.handle)
	return e, log
}

// settle drains every processor until a fragment chain's last hop has
// landed (a drain can return between two hops of a chain).
func settle(t *testing.T, e *Entity) {
	t.Helper()
	for round := 0; round < 3; round++ {
		for _, p := range e.procs {
			if p.drainer != nil && !p.drainer.Drain(10*time.Second) {
				t.Fatal("engine drain timed out")
			}
		}
	}
}

// seededBatches returns n batches of 16 quotes with dense sequence
// numbers from 1 and seeded prices.
func seededBatches(seed int64, n int) []stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stream.Batch, n)
	seq := uint64(1)
	for i := range out {
		b := make(stream.Batch, 16)
		for j := range b {
			b[j] = quote(seq, fmt.Sprintf("S%02d", rng.Intn(20)), float64(rng.Intn(1000)), int64(rng.Intn(1000)))
			seq++
		}
		out[i] = b
	}
	return out
}

// runFanoutScenario drives one seeded stream through an entity: six
// plain queries, one paused for the middle third of the stream and
// reopened, and one under dedup, with stale tuples replayed — whole
// stale batches (the gate returns nil) and half-stale ones (a filtered
// copy) — so every way a gate can answer admit is on the path.
func runFanoutScenario(t *testing.T, nProcs, nFrags int, factory EngineFactory) map[string][]uint64 {
	t.Helper()
	e, log := newFanoutEntity(t, nProcs, factory)
	for i := 0; i < 6; i++ {
		if err := e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), float64(i*100), float64(i*100+400)), nFrags); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"paused", "dedup"} {
		if err := e.PlaceQuery(filterSpec(id, 0, 700), nFrags); err != nil {
			t.Fatal(err)
		}
	}
	pq, _, err := e.lookupQuery("dedup")
	if err != nil {
		t.Fatal(err)
	}
	pq.gate.dedup = true // nothing flows yet

	batches := seededBatches(7, 90)
	for i, b := range batches {
		switch i {
		case 30:
			pauseQuery(t, e, "paused")
		case 60:
			if _, _, err := e.ResumeQuery("paused", nil); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			e.IngestBatch(batches[i-5]) // stale for the dedup query
			// Half stale, half new: the second half of the last batch
			// and the first half of this one, which makes the first
			// half of this one stale when it arrives whole below.
			mixed := append(append(stream.Batch(nil), batches[i-1][8:]...), b[:8]...)
			e.IngestBatch(mixed)
		}
		e.IngestBatch(b)
	}
	settle(t, e)
	if d := e.DroppedTotal(); d != 0 {
		t.Fatalf("engines dropped %d tuples; the differential run must be lossless", d)
	}
	got := log.multisets()
	// The dedup query saw every tuple at most once, the paused one
	// missed nothing, and both filter like q-less twins of each other.
	for i := 1; i < len(got["dedup"]); i++ {
		if got["dedup"][i] == got["dedup"][i-1] {
			t.Fatalf("dedup query processed seq %d twice", got["dedup"][i])
		}
	}
	if len(got["paused"]) <= len(got["dedup"]) {
		t.Fatalf("paused query has %d results, dedup twin %d: the replays should add to the first",
			len(got["paused"]), len(got["dedup"]))
	}
	return got
}

// TestFanoutDifferential: the grouped fan-out gives every query the
// result multiset the per-query loop gives it.
func TestFanoutDifferential(t *testing.T) {
	for _, nProcs := range []int{1, 2} {
		for _, nFrags := range []int{1, 2} {
			t.Run(fmt.Sprintf("procs=%d/frags=%d", nProcs, nFrags), func(t *testing.T) {
				want := runFanoutScenario(t, nProcs, nFrags, perQueryFactory)
				got := runFanoutScenario(t, nProcs, nFrags, groupedFactory)
				if len(want) != 8 {
					t.Fatalf("reference run has results for %d of 8 queries", len(want))
				}
				for q, w := range want {
					if !reflect.DeepEqual(got[q], w) {
						t.Errorf("query %s: grouped fan-out delivered %d results, per-query loop %d (or other seqs)",
							q, len(got[q]), len(w))
					}
				}
			})
		}
	}
}

// TestFanoutPlacementRacesIngest: queries placed and removed while
// batches flow never cost a standing query a tuple — a fan-out snapshot
// that still names a removed fragment skips it and feeds the rest.
func TestFanoutPlacementRacesIngest(t *testing.T) {
	batches := seededBatches(11, 300)
	run := func(factory EngineFactory, churn bool) map[string][]uint64 {
		e, log := newFanoutEntity(t, 2, factory)
		for i := 0; i < 4; i++ {
			if err := e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), float64(i*100), float64(i*100+500)), 1); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		if churn {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("churn%d", k%3)
					if err := e.PlaceQuery(filterSpec(id, 0, 1000), 1); err != nil {
						t.Error(err)
						return
					}
					if _, err := e.RemoveQuery(id); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for _, b := range batches {
			e.IngestBatch(b)
		}
		close(stop)
		wg.Wait()
		settle(t, e)
		if d := e.DroppedTotal(); d != 0 {
			t.Fatalf("engines dropped %d tuples", d)
		}
		got := log.multisets()
		for q := range got {
			if q[0] != 'q' {
				delete(got, q)
			}
		}
		return got
	}
	want := run(perQueryFactory, false)
	got := run(groupedFactory, true)
	if len(want) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("standing queries' results differ under churn: %d queries, want the reference's %d", len(got), len(want))
	}
}

// TestFanoutTableIsCopyOnWrite: a table ingest has loaded never changes
// under it, whatever is placed or removed meanwhile (RemoveQuery used to
// compact the live slice in place) — neither its groups nor the route an
// ingest built for it. A stream whose groups did not change keeps its
// route into the next table; one whose groups did gets a new one, built
// by the next ingest and not by the placement.
func TestFanoutTableIsCopyOnWrite(t *testing.T) {
	e, _ := newFanoutEntity(t, 2, miniFactory)
	for i := 0; i < 4; i++ {
		if err := e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), 0, 100), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ForceDelegation("trades", 0); err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceQuery(engine.QuerySpec{ID: "tr", Source: "trades",
		Filters: []engine.FilterSpec{{Field: "qty", Lo: 0, Hi: 10}}}, 1); err != nil {
		t.Fatal(err)
	}
	dp := e.procs[0] // the first stream is delegated to processor 0, and so is trades
	loaded := *dp.fanout.Load()
	if loaded["quotes"].route.Load() != nil {
		t.Fatal("a placement built the route; the first ingest after it should")
	}
	e.IngestBatch(stream.Batch{quote(1, "ibm", 50, 1)})
	e.IngestBatch(stream.Batch{stream.NewTuple("trades", 1, time.Unix(1, 0), stream.String("ibm"), stream.Int(5))})
	route, trRoute := loaded["quotes"].route.Load(), loaded["trades"].route.Load()
	if route == nil || route.ix == nil || len(route.owner) != 2 {
		t.Fatalf("route after the first ingest = %+v, want one index over 2 groups", route)
	}
	var before [][]string
	for _, g := range loaded["quotes"].groups {
		before = append(before, append([]string(nil), g.frags...))
	}
	if len(before) != 2 || len(before[0])+len(before[1]) != 4 {
		t.Fatalf("table groups = %v, want 4 head fragments on 2 processors", before)
	}
	if _, err := e.RemoveQuery("q0"); err != nil {
		t.Fatal(err)
	}
	if err := e.PlaceQuery(filterSpec("q4", 0, 100), 1); err != nil {
		t.Fatal(err)
	}
	e.IngestBatch(stream.Batch{quote(2, "ibm", 50, 1)})
	for i, g := range loaded["quotes"].groups {
		if !reflect.DeepEqual(g.frags, before[i]) || len(g.gates) != len(before[i]) || len(g.terms) != len(before[i]) {
			t.Fatalf("loaded table changed: group %d is %v, was %v", i, g.frags, before[i])
		}
	}
	if loaded["quotes"].route.Load() != route {
		t.Fatal("the loaded table's route changed under it")
	}
	next := *dp.fanout.Load()
	if r := next["quotes"].route.Load(); r == nil || r == route {
		t.Fatalf("the new table's quotes route is %p, want one built for it (the old one is %p)", r, route)
	}
	if trRoute == nil || next["trades"].route.Load() != trRoute {
		t.Fatal("a stream whose groups did not change lost its route")
	}
	now := next["quotes"].groups
	n := 0
	for _, g := range now {
		for _, f := range g.frags {
			if f == "q0#0" {
				t.Fatal("removed fragment still published")
			}
			n++
		}
	}
	if n != 4 {
		t.Fatalf("published table lists %d head fragments, want 4", n)
	}
	if _, err := e.RemoveQuery("q4"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"q1", "q2", "q3", "tr"} {
		if _, err := e.RemoveQuery(id); err != nil {
			t.Fatal(err)
		}
	}
	if len(*dp.fanout.Load()) != 0 {
		t.Fatalf("table after removing every query = %v, want empty", *dp.fanout.Load())
	}
}

// blockingEngine parks every grouped feed until released, standing in
// for the moment between a gate admitting a batch and the engine having
// it.
type blockingEngine struct {
	*engine.MiniEngine
	entered chan struct{}
	release chan struct{}
}

func (e *blockingEngine) FeedGroupBatch(ids []string, b stream.Batch) {
	e.entered <- struct{}{}
	<-e.release
	e.MiniEngine.FeedGroupBatch(ids, b)
}

func (e *blockingEngine) FeedGroupLent(ids []string, b stream.Batch, l *stream.Lease) {
	e.entered <- struct{}{}
	<-e.release
	e.MiniEngine.FeedGroupLent(ids, b, l)
}

// TestDrainQueryWaitsForAdmittedBatches: a batch the gate admitted
// before it closed, and the fan-out has not handed to the engine yet, is
// in neither the engine nor the pause buffer. A capture must not report
// the query drained while one exists, or the snapshot misses it and the
// handoff loses it; and a resume must not replay ahead of it, whether or
// not a capture drained first.
func TestDrainQueryWaitsForAdmittedBatches(t *testing.T) {
	newBlocked := func(t *testing.T) (*Entity, *seqLog, *blockingEngine, chan struct{}) {
		var eng *blockingEngine
		e, log := newFanoutEntity(t, 1, func(name string, c *stream.Catalog) engine.Processor {
			eng = &blockingEngine{MiniEngine: engine.NewMini(name, c),
				entered: make(chan struct{}), release: make(chan struct{})}
			return eng
		})
		if err := e.PlaceQuery(filterSpec("q1", 0, 100), 1); err != nil {
			t.Fatal(err)
		}
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			e.IngestBatch(stream.Batch{quote(1, "ibm", 50, 1), quote(2, "ibm", 60, 1)})
		}()
		<-eng.entered // admitted by the open gate, not yet in the engine
		return e, log, eng, fed
	}

	t.Run("capture", func(t *testing.T) {
		e, log, eng, fed := newBlocked(t)
		if c := e.CaptureQueries([]string{"q1"}, 20*time.Millisecond)[0]; c.Err == nil {
			t.Fatal("capture reported a drained query while an admitted batch was unfed")
		}
		close(eng.release)
		<-fed
		if c := e.CaptureQueries([]string{"q1"}, 10*time.Second)[0]; c.Err != nil || c.Cut["quotes"] != 2 {
			t.Fatalf("capture after the batch was fed: cut %v, err %v", c.Cut, c.Err)
		}
		if got := len(log.multisets()["q1"]); got != 2 {
			t.Fatalf("drained query has %d results, want the admitted batch's 2", got)
		}
		buffered, err := e.DetachQuery("q1")
		if err != nil || len(buffered) != 0 {
			t.Fatalf("pause buffer = %d tuples (err %v), want 0: the batch went to the engine", len(buffered), err)
		}
	})

	// No capture in between: the gate closes, buffers a later tuple, and
	// is reopened while the earlier batch is still on its way in.
	t.Run("resume", func(t *testing.T) {
		e, _, eng, fed := newBlocked(t)
		order := &seqRecorder{}
		e.SetResultHandler(order.handle)
		pauseQuery(t, e, "q1")
		e.IngestBatch(stream.Batch{quote(3, "ibm", 70, 1)})
		resumed := make(chan struct{})
		go func() {
			defer close(resumed)
			if _, _, err := e.ResumeQuery("q1", nil); err != nil {
				t.Error(err)
			}
		}()
		select {
		case <-resumed:
			t.Fatal("ResumeQuery returned while an admitted batch was unfed")
		case <-time.After(20 * time.Millisecond):
		}
		close(eng.release)
		<-fed
		<-resumed
		if got := order.seqs(); !slices.Equal(got, []uint64{1, 2, 3}) {
			t.Fatalf("processed seqs %v, want [1 2 3]: the replay overtook the admitted batch", got)
		}
	})
}

// rejectAll is a filter no test tuple passes, so the engines allocate
// nothing for results.
func rejectAll(id string) engine.QuerySpec { return filterSpec(id, -2, -1) }

// firstFour passes the rows priced 0 to 3: the first four of the
// allocation test's batches, whatever their length.
func firstFour(id string) engine.QuerySpec { return filterSpec(id, 0, 3) }

// TestIngestAllocations: what one delivered batch allocates grows
// neither with the queries it feeds nor with the tuples it holds, and is
// nothing. The local engine keeps the batch it is handed, so a local
// target costs nothing; a remote one costs nothing either, because its
// engine keeps no row of its filters' (engine.GroupFeeder's Seals), so
// its one ent.feedb frame decodes into a pooled lease — and the routing
// that gathered the frame's rows costs nothing; a remote processor no
// row is routed to is sent no frame. Over SimNet rather than the
// synchronous loop transport, the frame costs nothing more: SimNet
// copies it into the remote node's reused arena. The lease and the
// frame's encode buffer come from a sync.Pool, which drops items at
// random under -race, so the frame's count holds only without it; the
// frameless counts hold under -race too (the routing scratch is not a
// sync.Pool).
func TestIngestAllocations(t *testing.T) {
	measure := func(net simnet.Transport, nProcs, nQueries, nTuples int, spec func(string) engine.QuerySpec) float64 {
		e, err := New("e1", net, testCatalog(t), nProcs, groupedFactory)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		sim, _ := net.(*simnet.SimNet)
		for i := 0; i < nQueries; i++ {
			if err := e.PlaceQuery(spec(fmt.Sprintf("q%d", i)), 1); err != nil {
				t.Fatal(err)
			}
		}
		b := make(stream.Batch, nTuples)
		for i := range b {
			b[i] = quote(uint64(i+1), fmt.Sprintf("S%02d", i%20), float64(i), int64(i))
		}
		dp := e.procs[0]
		drain := func() {
			if sim != nil {
				sim.Quiesce(10 * time.Second) // the frame is on the remote processor's ring
			}
			for _, p := range e.procs {
				p.drainer.Drain(10 * time.Second)
			}
		}
		// Until a query's delay and processing histograms have filled
		// their 4096-sample reservoirs, the reservoirs' growth shows up
		// as a fraction of an allocation per query and batch.
		for i := 0; i < 4200; i++ {
			dp.ingest(b) // the same batch again and again: it is only read
			if i%256 == 0 {
				drain()
			}
		}
		return testing.AllocsPerRun(200, func() {
			dp.ingest(b)
			drain()
		})
	}
	if got := measure(newLoopNet(), 1, 1, 16, rejectAll); got != 0 {
		t.Errorf("one local target: %v allocations per batch, want 0 (the engine keeps the batch it is handed)", got)
	}
	if got := measure(newLoopNet(), 2, 32, 64, rejectAll); got != 0 {
		t.Errorf("a remote group no row is routed to: %v allocations per batch, want 0 (no frame is sent)", got)
	}
	if raceEnabled {
		return
	}
	// Two processors: half the queries are local, half behind one frame
	// of the batch's first four rows.
	for _, c := range []struct{ queries, tuples int }{{8, 8}, {8, 64}, {32, 8}, {32, 64}} {
		if got := measure(newLoopNet(), 2, c.queries, c.tuples, firstFour); got != 0 {
			t.Errorf("one local group and one ent.feedb frame: %v allocations per batch for %d queries and %d tuples, want 0 (the frame decodes into a pooled lease)",
				got, c.queries, c.tuples)
		}
	}
	// The same frame over SimNet, which copies it into the remote
	// processor's reused arena and lends it to the handler from there.
	sim := simnet.NewSim(nil)
	t.Cleanup(func() { sim.Close() })
	if got := measure(sim, 2, 8, 64, firstFour); got != 0 {
		t.Errorf("one ent.feedb frame over SimNet: %v allocations per batch, want 0 (the node's arena is reused)", got)
	}
}

// TestLeasedIngestAllocations: when no fragment an entity hosts is a
// join, a delivered batch allocates nothing in steady state — the one
// copy of the rows the relay lends (IngestBatch) is a pooled lease the
// local engine makes and releases — and an ent.feedb frame allocates
// nothing either: its engine says none of its fragments keeps rows, so
// the remote processor decodes it into a lease too. The queries are
// stateless filters, whose results are the very rows they were fed. The
// leases come from a sync.Pool, which drops items at random under -race,
// so the exact counts hold only without it.
func TestLeasedIngestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; exact counts only hold without -race")
	}
	measure := func(nProcs, nQueries int) (allocs float64, remoteRows int64) {
		e, _ := newFanoutEntity(t, nProcs, groupedFactory)
		e.SetResultHandler(nil)
		var remote []string // the fragments placed away from the delegation processor
		for i := 0; i < nQueries; i++ {
			spec := firstFour(fmt.Sprintf("q%d", i))
			if err := e.PlaceQuery(spec, 1); err != nil {
				t.Fatal(err)
			}
			if at, _ := e.QueryPlacement(spec.ID); at[0] != 0 {
				remote = append(remote, spec.ID+"#0")
			}
		}
		b := make(stream.Batch, 16)
		for i := range b {
			b[i] = quote(uint64(i+1), fmt.Sprintf("S%02d", i%20), float64(i), int64(i))
		}
		drain := func() {
			for _, p := range e.procs {
				p.drainer.Drain(10 * time.Second)
			}
		}
		rows := func() (n int64) {
			for _, id := range remote {
				m, _ := e.procs[1].reporter.Metrics(id)
				n += m.Delay.Count
			}
			return n
		}
		for i := 0; i < 4200; i++ { // fills the histograms' reservoirs, as in TestIngestAllocations
			e.IngestBatch(b)
			if i%256 == 0 {
				drain()
			}
		}
		drain()
		before := rows()
		allocs = testing.AllocsPerRun(200, func() {
			e.IngestBatch(b)
			drain()
		})
		return allocs, rows() - before
	}
	if got, _ := measure(1, 4); got != 0 {
		t.Errorf("local targets only: %v allocations per delivered batch, want 0 (a pooled lease)", got)
	}
	got, remoteRows := measure(2, 8)
	if remoteRows == 0 {
		t.Fatal("no row reached the remote processor: no ent.feedb frame was measured")
	}
	if got != 0 {
		t.Errorf("one local group and one ent.feedb frame: %v allocations per delivered batch, want 0 (two pooled leases)", got)
	}
}

// TestFanoutTraceHops: a sampled tuple still gets one delegate hop and
// one operator hop per head fragment, local or remote; an unsampled
// batch records nothing.
func TestFanoutTraceHops(t *testing.T) {
	tr := trace.New(1, 64)
	trace.SetActive(tr)
	defer trace.SetActive(nil)
	e, _ := newFanoutEntity(t, 2, miniFactory)
	for i := 0; i < 4; i++ {
		if err := e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), 0, 100), 1); err != nil {
			t.Fatal(err)
		}
	}
	sampled := quote(1, "ibm", 50, 1)
	id := tr.Sample("quotes", 1, "src")
	sampled.Span = uint64(id)
	e.IngestBatch(stream.Batch{quote(2, "ibm", 50, 1)})
	e.IngestBatch(stream.Batch{quote(3, "ibm", 50, 1), sampled})
	span, ok := tr.Get(id)
	if !ok {
		t.Fatal("sampled tuple left no span")
	}
	hops := map[string]int{}
	for _, h := range span.Hops {
		hops[h.Stage+" "+h.Node]++
	}
	want := map[string]int{trace.StagePublish + " src": 1, trace.StageDelegate + " e1/p0": 1}
	for i := 0; i < 4; i++ {
		want[fmt.Sprintf("%s q%d#0", trace.StageOperator, i)] = 1
		want[fmt.Sprintf("%s q%d", trace.StageResult, i)] = 1
	}
	if !reflect.DeepEqual(hops, want) {
		t.Fatalf("hops = %v, want %v", hops, want)
	}

	// Down a fragment chain a boundary records the hops it recorded when
	// it handed over one tuple at a time: none on the same processor, the
	// receiver's operator hop on another, and on a routed boundary the
	// decision hop, then the receiver's when the pick is remote. Routed
	// placement on two processors puts q#0 on p0, q#1@r0 on p1, q#1@r1 on
	// p0 and q#2 on p1, and the cold chooser picks r0, then r1.
	op := func(node string) string { return trace.StageOperator + " " + node }
	head := []string{trace.StagePublish + " src", trace.StageDelegate + " e1/p0", op("q#0")}
	result := trace.StageResult + " q"
	for _, c := range []struct {
		name   string
		procs  int
		routed bool
		want   [][]string // after head, per sampled tuple in turn
	}{
		{"same processor", 1, false, [][]string{{result}}},
		{"across processors", 2, false, [][]string{{op("q#1"), op("q#2"), result}}},
		{"routed", 2, true, [][]string{
			{op("q#1@r0"), op("q#1@r0"), result}, // remote replica, then q#2 beside it
			{op("q#1@r1"), op("q#2"), result},    // local replica, then q#2 on the other
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, _ := newFanoutEntity(t, c.procs, miniFactory)
			if c.routed {
				e.SetTupleRouting(2, 0)
			}
			if err := e.PlaceQuery(chainSpec("q"), 3); err != nil {
				t.Fatal(err)
			}
			for i, want := range c.want {
				tu := quote(uint64(10+i), "ibm", 50, 1)
				id := tr.Sample("quotes", tu.Seq, "src")
				tu.Span = uint64(id)
				e.IngestBatch(stream.Batch{tu})
				span, ok := tr.Get(id)
				if !ok {
					t.Fatal("sampled tuple left no span")
				}
				var got []string
				for _, h := range span.Hops {
					got = append(got, h.Stage+" "+h.Node)
				}
				if want = append(head[:len(head):len(head)], want...); !slices.Equal(got, want) {
					t.Fatalf("tuple %d: hops %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestFrameDecodeErrorsCounted: a frame that does not decode loses a whole
// batch for every fragment it names, so the processor counts it by frame
// kind and logs it — once when a kind goes bad, once when it recovers.
func TestFrameDecodeErrorsCounted(t *testing.T) {
	e, log := newFanoutEntity(t, 2, miniFactory)
	events := obslog.NewText(io.Discard, obslog.LevelWarn, 64)
	e.SetLogger(events)
	if err := e.PlaceQuery(filterSpec("q", 0, 100), 1); err != nil {
		t.Fatal(err)
	}
	b := stream.Batch{quote(1, "ibm", 50, 1), quote(2, "hp", 60, 1)}
	frames := map[string][]byte{
		KindFeedBatch: encodeFeedBatch(nil, []string{"q#0"}, b, nil),
		KindIngest:    stream.AppendBatch(nil, b),
	}
	placed, _ := e.QueryPlacement("q")
	to := e.procs[placed[0]].id // the frames address q's one fragment
	send := func(kind string, payload []byte) {
		t.Helper()
		if err := e.transport.Send(e.procs[0].id, to, kind, payload); err != nil {
			t.Fatal(err)
		}
	}
	for kind, frame := range frames {
		send(kind, frame[:len(frame)-1])
		send(kind, frame[:1])
	}
	want := map[string]int64{KindFeedBatch: 2, KindIngest: 2}
	if got := e.FrameDecodeErrors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FrameDecodeErrors = %v, want %v", got, want)
	}
	if got := log.multisets(); len(got) != 0 {
		t.Fatalf("truncated frames produced results: %v", got)
	}
	if bad := events.Journal().Since(0, "decode.bad"); len(bad) != len(frames) {
		t.Fatalf("%d decode.bad events for two bad frames of each of %d kinds, want one per kind: %v", len(bad), len(frames), bad)
	}
	send(KindFeedBatch, frames[KindFeedBatch])
	send(KindFeedBatch, frames[KindFeedBatch])
	if ok := events.Journal().Since(0, "decode.ok"); len(ok) != 1 || ok[0].Fields["kind"] != KindFeedBatch {
		t.Fatalf("decode.ok events after two good %s frames: %v", KindFeedBatch, ok)
	}
	if got := e.FrameDecodeErrors(); !reflect.DeepEqual(got, want) {
		t.Fatalf("FrameDecodeErrors = %v after good frames, want %v", got, want)
	}
	if got := log.multisets()["q"]; !slices.Equal(got, []uint64{1, 1, 2, 2}) {
		t.Fatalf("results after two good frames: %v", got)
	}
}

// TestFanoutSharedBatch: the batch a delegation processor is handed is
// shared by everything it feeds — open gates, a paused gate, a dedup
// gate, the local engine (which keeps the entity's one copy) and the
// frame to the other processor — and at the same time by a second entity
// and by the caller, who goes on reading it. Every query gets what it would have
// got from a private copy, and the batches come back unwritten; under
// -race a single write to a shared batch, by anyone, fails the test.
func TestFanoutSharedBatch(t *testing.T) {
	run := func(shared bool) (map[string][]uint64, map[string][]uint64, []stream.Batch) {
		e, log := newFanoutEntity(t, 2, groupedFactory)
		other, err := New("e2", newLoopNet(), testCatalog(t), 1, groupedFactory)
		if err != nil {
			t.Fatal(err)
		}
		defer other.Close()
		otherLog := &seqLog{}
		other.SetResultHandler(otherLog.handle)
		for i := 0; i < 4; i++ {
			if err := e.PlaceQuery(filterSpec(fmt.Sprintf("q%d", i), float64(i*100), float64(i*100+500)), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.PrepareQuery(filterSpec("paused", 0, 700), 1); err != nil { // gate closed: it buffers
			t.Fatal(err)
		}
		if err := e.PlaceQuery(filterSpec("dedup", 0, 700), 1); err != nil {
			t.Fatal(err)
		}
		pq, _, err := e.lookupQuery("dedup")
		if err != nil {
			t.Fatal(err)
		}
		pq.gate.dedup = true // nothing flows yet
		if err := other.PlaceQuery(filterSpec("far", 0, 700), 1); err != nil {
			t.Fatal(err)
		}
		batches := seededBatches(11, 40)
		view := func(b stream.Batch) stream.Batch {
			if shared {
				return b
			}
			return slices.Clone(b)
		}
		fed := make(chan stream.Batch, len(batches))
		read := make(chan uint64)
		go func() { // the caller keeps reading what it handed over
			var sum uint64
			for b := range fed {
				for i := range b {
					sum += b[i].Seq + uint64(b[i].Values[1].AsFloat())
				}
			}
			read <- sum
		}()
		for i, b := range batches {
			e.IngestBatch(view(b))
			other.IngestBatch(view(b))
			if i%5 == 4 {
				e.IngestBatch(view(batches[i-2])) // stale for the dedup query
			}
			fed <- b
		}
		close(fed)
		if _, _, err := e.ResumeQuery("paused", nil); err != nil {
			t.Fatal(err)
		}
		settle(t, e)
		settle(t, other)
		<-read
		return log.multisets(), otherLog.multisets(), batches
	}
	got, gotFar, batches := run(true)
	want, wantFar, pristine := run(false)
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFar, wantFar) {
		t.Fatalf("shared batches gave %v and %v; private copies gave %v and %v", got, gotFar, want, wantFar)
	}
	if len(got["paused"]) == 0 || len(got["dedup"]) == 0 || len(gotFar["far"]) == 0 {
		t.Fatalf("a query saw nothing: %v %v", got, gotFar)
	}
	if !reflect.DeepEqual(batches, pristine) {
		t.Fatal("a shared batch was written to after it was handed over")
	}
}

// discardEngine registers queries and throws every feed away, so a
// benchmark over it times the fan-out and its gates alone.
type discardEngine struct{ *engine.MiniEngine }

func (discardEngine) FeedGroupBatch([]string, stream.Batch)               {}
func (discardEngine) FeedGroupLent([]string, stream.Batch, *stream.Lease) {}

// BenchmarkIngestFanout: one delegation processor, 32 open gates, a
// 64-tuple single-stream batch, an engine that discards — what a batch
// pays to get past the gates (each raises its stream's high-water once
// per batch; no per-tuple work, no allocation).
func BenchmarkIngestFanout(b *testing.B) {
	e, err := New("e1", newLoopNet(), testCatalog(b), 1, func(name string, c *stream.Catalog) engine.Processor {
		return discardEngine{engine.NewMini(name, c)}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 32; i++ {
		if err := e.PlaceQuery(rejectAll(fmt.Sprintf("q%d", i)), 1); err != nil {
			b.Fatal(err)
		}
	}
	batch := make(stream.Batch, 64)
	for i := range batch {
		batch[i] = quote(uint64(i), "ibm", 50, 1)
	}
	dp := e.procs[0]
	dp.ingest(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp.ingest(batch)
	}
}
