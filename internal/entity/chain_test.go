package entity

import (
	"fmt"
	"maps"
	"reflect"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// Tests of the fragment boundary: a fragment's results leave it as one
// batch per run, so a boundary costs one hand-over per batch, not one
// per tuple.

// chainSpec splits into three single-filter fragments that every test
// quote with symbol ibm passes.
func chainSpec(id string) engine.QuerySpec {
	return engine.QuerySpec{ID: id, Source: "quotes", Filters: []engine.FilterSpec{
		{Field: "price", Lo: 0, Hi: 1000, Cost: 1},
		{Field: "volume", Lo: 0, Hi: 1000, Cost: 1},
		{KeyField: "symbol", Keys: []string{"ibm"}, Cost: 1},
	}}
}

// chainBatch is n quotes that pass every fragment of chainSpec.
func chainBatch(n int) stream.Batch {
	b := make(stream.Batch, n)
	for i := range b {
		b[i] = quote(uint64(i+1), "ibm", float64(i), int64(i))
	}
	return b
}

// frameCount counts the messages a transport carries, by kind.
type frameCount struct {
	simnet.Transport
	mu     sync.Mutex
	frames map[string]int
}

func newFrameCount(inner simnet.Transport) *frameCount {
	return &frameCount{Transport: inner, frames: make(map[string]int)}
}

func (n *frameCount) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	n.mu.Lock()
	n.frames[kind]++
	n.mu.Unlock()
	return n.Transport.Send(from, to, kind, payload)
}

func (n *frameCount) counts() map[string]int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return maps.Clone(n.frames)
}

// TestFragmentBoundaryFramesPerBatch: a 64-tuple batch that passes every
// fragment of a chain over two processors crosses each processor
// boundary as one ent.feedb frame when the chain is static, and as at
// most one frame per chosen replica when it is routed — while the
// routing decision is still taken once per tuple. (A boundary used to
// send one message per tuple.)
func TestFragmentBoundaryFramesPerBatch(t *testing.T) {
	batch := chainBatch(64)
	for _, routed := range []bool{false, true} {
		t.Run(fmt.Sprintf("routed=%v", routed), func(t *testing.T) {
			sim := simnet.NewSim(nil)
			defer sim.Close()
			net := newFrameCount(sim)
			e, err := New("e1", net, testCatalog(t), 2, groupedFactory)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			log := &seqLog{}
			e.SetResultHandler(log.handle)
			if routed {
				e.SetTupleRouting(2, 0)
			}
			if err := e.PlaceQuery(chainSpec("q"), 3); err != nil {
				t.Fatal(err)
			}
			placement, _ := e.QueryPlacement("q")
			e.IngestBatch(batch)
			for round := 0; round < 4; round++ { // a frame, a run, the next frame
				if !sim.Quiesce(5 * time.Second) {
					t.Fatal("quiesce")
				}
				settle(t, e)
			}
			if got := len(log.multisets()["q"]); got != len(batch) {
				t.Fatalf("%d results, want %d", got, len(batch))
			}
			frames := net.counts()
			if !routed {
				if !reflect.DeepEqual(placement, []int{0, 1, 0}) {
					t.Fatalf("placement %v, want both boundaries across processors", placement)
				}
				if want := map[string]int{KindFeedBatch: 2}; !reflect.DeepEqual(frames, want) {
					t.Fatalf("frames sent = %v, want %v: one per boundary", frames, want)
				}
				return
			}
			// q#0@p0 routes to q#1@r0 on p1 and q#1@r1 on p0, both of which
			// feed q#2 on p1: one remote target per boundary.
			if n := frames[KindFeedBatch]; len(frames) != 1 || n == 0 || n > 2 {
				t.Fatalf("frames sent = %v, want one or two %s: at most one per remote target", frames, KindFeedBatch)
			}
			routes := e.RouteBindings()
			if len(routes) != 2 || routes[0].Chooser.RoutedCount() != int64(len(batch)) {
				t.Fatalf("routes %+v: want 2 candidates and %d decisions", routes, len(batch))
			}
		})
	}
}

// TestFragmentChainAllocations: what a delivered batch allocates on its
// way through a static three-fragment chain of stateless filters, in
// steady state: nothing. The rows get one copy per engine fragment they
// reach, each a pooled lease: the local engine's copy of the delivery it
// is lent, then, over two processors, where both boundaries cross
// (placement 0, 1, 0), each boundary's ent.feedb frame decoded into one,
// and on one processor the engine's copy of each boundary's results,
// which a fragment only lends (engine.Processor point 6). Leases and a
// frame's encode buffer come from a sync.Pool, which drops items at
// random under -race, so the exact counts hold only without it.
func TestFragmentChainAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; exact counts only hold without -race")
	}
	for _, c := range []struct {
		procs int
		want  float64
	}{{2, 0}, {1, 0}} {
		e, err := New("e1", newLoopNet(), testCatalog(t), c.procs, groupedFactory)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		e.SetResultHandler(nil)
		if err := e.PlaceQuery(chainSpec("q"), 3); err != nil {
			t.Fatal(err)
		}
		batch := chainBatch(64)
		drain := func() {
			for round := 0; round < 3; round++ {
				for _, p := range e.procs {
					p.drainer.Drain(10 * time.Second)
				}
			}
		}
		for i := 0; i < 4200; i++ { // fills the histograms' reservoirs, as in TestIngestAllocations
			e.IngestBatch(batch)
			if i%256 == 0 {
				drain()
			}
		}
		drain()
		if got := testing.AllocsPerRun(200, func() {
			e.IngestBatch(batch)
			drain()
		}); got != c.want {
			t.Errorf("%d processors: %v allocations per delivered batch, want %v", c.procs, got, c.want)
		}
	}
}

// BenchmarkFragmentChain: 64-tuple batches through a static three-fragment
// chain whose two boundaries both cross processors, on the production
// engine over a synchronous transport. ns/op and allocs/op are per batch,
// end to end; msgs/tuple counts the intra-entity messages.
func BenchmarkFragmentChain(b *testing.B) {
	net := newFrameCount(newLoopNet())
	e, err := New("e1", net, testCatalog(b), 2, groupedFactory)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.PlaceQuery(chainSpec("q"), 3); err != nil {
		b.Fatal(err)
	}
	batch := chainBatch(64)
	drain := func() {
		for round := 0; round < 3; round++ {
			for _, p := range e.procs {
				p.drainer.Drain(10 * time.Second)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.IngestBatch(batch) // the same batch again and again: it is only read
		if i%64 == 63 {
			drain()
		}
	}
	drain()
	b.StopTimer()
	if got, want := e.Delivered.Value(), int64(b.N*len(batch)); got != want {
		b.Fatalf("delivered %d of %d", got, want)
	}
	sent := 0
	for _, n := range net.counts() {
		sent += n
	}
	b.ReportMetric(float64(sent)/float64(b.N*len(batch)), "msgs/tuple")
}
