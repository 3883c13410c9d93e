package entity

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sspd/internal/engine"
	"sspd/internal/operator"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// Tests of the routed delegation fan-out (DESIGN.md §13 "Routing inside
// the entity"): a remote processor's frame holds only the rows some head
// fragment it hosts is interested in.

// feedFrame is one ent.feedb frame as its receiver decodes it.
type feedFrame struct {
	from, to simnet.NodeID
	frags    []string
	seqs     []uint64
}

// frameLog records every ent.feedb frame a transport carries, decoded.
type frameLog struct {
	simnet.Transport
	mu     sync.Mutex
	dec    frameDecoder
	frames []feedFrame
}

func (n *frameLog) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if kind == KindFeedBatch {
		n.mu.Lock()
		frags, b, _, err := n.dec.decodeFeedBatch(payload, nil)
		if err != nil {
			n.mu.Unlock()
			return err
		}
		f := feedFrame{from: from, to: to, frags: slices.Clone(frags)}
		for _, t := range b {
			f.seqs = append(f.seqs, t.Seq)
		}
		n.frames = append(n.frames, f)
		n.mu.Unlock()
	}
	return n.Transport.Send(from, to, kind, payload)
}

// take returns the frames recorded since the last call.
func (n *frameLog) take() []feedFrame {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := n.frames
	n.frames = nil
	return out
}

// TestFanoutFramesCarryOnlyMatchingRows: each ent.feedb frame the
// delegation processor sends holds exactly the admitted rows that match
// the union of the interests of the head fragments its processor hosts,
// in batch order; a processor no row matches gets no frame, and its
// gates still advance their marks and return unfed to zero, so a capture
// does not wait. Entity.Suppressed counts the rows the frames withheld.
func TestFanoutFramesCarryOnlyMatchingRows(t *testing.T) {
	net := &frameLog{Transport: newLoopNet()}
	cat := testCatalog(t)
	e, err := New("e1", net, cat, 3, miniFactory)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	log := &seqLog{}
	e.SetResultHandler(log.handle)
	keys := func(id string, keys ...string) engine.QuerySpec {
		return engine.QuerySpec{ID: id, Source: "quotes", Load: 1,
			Filters: []engine.FilterSpec{{KeyField: "symbol", Keys: keys}}}
	}
	band := func(id string, lo, hi float64) engine.QuerySpec {
		return engine.QuerySpec{ID: id, Source: "quotes", Load: 1,
			Filters: []engine.FilterSpec{{Field: "price", Lo: lo, Hi: hi}}}
	}
	// Equal loads deal the queries round-robin: p0 (the delegation
	// processor) hosts the first and fourth, p1 the key sets, p2 the bands.
	specs := []engine.QuerySpec{
		band("local", 0, 100), keys("k1", "S01", "S02"), band("b1", 900, 950),
		keys("local2", "S09"), keys("k2", "S03"), band("b2", 940, 1000),
	}
	wantProc := []int{0, 1, 2, 0, 1, 2}
	for i, spec := range specs {
		if err := e.PlaceQuery(spec, 1); err != nil {
			t.Fatal(err)
		}
		if at, _ := e.QueryPlacement(spec.ID); at[0] != wantProc[i] {
			t.Fatalf("%s placed on p%d, want p%d", spec.ID, at[0], wantProc[i])
		}
	}
	if d := e.Delegation("quotes"); d != e.procs[0].id {
		t.Fatalf("quotes delegated to %s, want p0", d)
	}
	sc, _ := cat.Lookup("quotes")
	interests := make(map[simnet.NodeID][]stream.Interest)
	for i, spec := range specs {
		p := e.procs[wantProc[i]].id
		interests[p] = append(interests[p], spec.Interest("quotes", sc))
	}

	rng := rand.New(rand.NewSource(5))
	var batches []stream.Batch
	seq := uint64(1)
	for i := 0; i < 40; i++ {
		b := make(stream.Batch, 1+rng.Intn(24))
		for j := range b {
			b[j] = quote(seq, fmt.Sprintf("S%02d", rng.Intn(12)), float64(rng.Intn(1000)), 1)
			seq++
		}
		batches = append(batches, b)
	}
	// A batch for the local queries alone: no remote processor gets it.
	quiet := stream.Batch{quote(seq, "S09", 50, 1), quote(seq+1, "S10", 60, 1)}
	batches = append(batches, quiet)

	var withheld int64
	skipped, partial := 0, 0
	for _, b := range batches {
		e.IngestBatch(b)
		got := make(map[simnet.NodeID]feedFrame)
		for _, f := range net.take() {
			if f.from != e.procs[0].id {
				t.Fatalf("a frame from %s: only the delegation processor sends one here", f.from)
			}
			if _, dup := got[f.to]; dup {
				t.Fatalf("two frames to %s for one batch", f.to)
			}
			got[f.to] = f
		}
		for _, p := range e.procs[1:] {
			var want []uint64
			for _, tu := range b {
				for _, in := range interests[p.id] {
					if in.Matches(sc, tu) {
						want = append(want, tu.Seq)
						break
					}
				}
			}
			withheld += int64(len(b) - len(want))
			f, sent := got[p.id]
			switch {
			case len(want) == 0 && sent:
				t.Fatalf("%s was sent rows %v, none of which its fragments want", p.id, f.seqs)
			case len(want) == 0:
				skipped++
			case !sent:
				t.Fatalf("%s was sent no frame; want rows %v", p.id, want)
			case !slices.Equal(f.seqs, want):
				t.Fatalf("%s was sent rows %v, want %v", p.id, f.seqs, want)
			case len(want) < len(b):
				partial++
			}
		}
	}
	if skipped == 0 || partial == 0 {
		t.Fatalf("%d skipped and %d partial frames: the batches do not exercise routing", skipped, partial)
	}
	if got := e.Suppressed.Value(); got != withheld {
		t.Fatalf("Suppressed = %d, the frames withheld %d rows", got, withheld)
	}

	// Every gate admitted every batch and handed it over, sent or not.
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = spec.ID
		pq, _, err := e.lookupQuery(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if n := pq.gate.unfed.Load(); n != 0 {
			t.Fatalf("%s: %d admitted batches unfed", spec.ID, n)
		}
	}
	start := time.Now()
	for i, c := range e.CaptureQueries(ids, time.Second) {
		if c.Err != nil || c.Cut["quotes"] != quiet[1].Seq {
			t.Fatalf("capture %s: cut %v, err %v; want quotes at %d", ids[i], c.Cut, c.Err, quiet[1].Seq)
		}
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("capture waited %v for batches that were never unfed", waited)
	}
	// Routing changed what was sent, not what was computed.
	got := log.multisets()
	for _, spec := range specs {
		var want []uint64
		in := spec.Interest("quotes", sc)
		for _, b := range batches {
			for _, tu := range b {
				if in.Matches(sc, tu) {
					want = append(want, tu.Seq)
				}
			}
		}
		if !slices.Equal(got[spec.ID], want) {
			t.Fatalf("%s delivered %v, want %v", spec.ID, got[spec.ID], want)
		}
	}
}

// randomSpec draws a query on quotes: a key set, a price band or both,
// sometimes a volume band, and a distinct or aggregate tail half the time.
func randomSpec(rng *rand.Rand, id string) engine.QuerySpec {
	spec := engine.QuerySpec{ID: id, Source: "quotes", Load: 1}
	kind := rng.Intn(3)
	if kind != 1 {
		keys := make([]string, 1+rng.Intn(4))
		for i := range keys {
			keys[i] = fmt.Sprintf("S%02d", rng.Intn(20))
		}
		spec.Filters = append(spec.Filters, engine.FilterSpec{KeyField: "symbol", Keys: keys, Cost: 1})
	}
	if kind != 0 {
		lo := float64(rng.Intn(900))
		spec.Filters = append(spec.Filters, engine.FilterSpec{Field: "price", Lo: lo, Hi: lo + float64(50+rng.Intn(400)), Cost: 1})
	}
	if rng.Intn(3) == 0 {
		spec.Filters = append(spec.Filters, engine.FilterSpec{Field: "volume", Lo: 0, Hi: float64(200 + rng.Intn(800)), Cost: 1})
	}
	switch rng.Intn(4) {
	case 0:
		spec.Distinct = &engine.DistinctSpec{Field: "symbol", Window: stream.CountWindow(1 + rng.Intn(8))}
	case 1:
		spec.Agg = &engine.AggSpec{Fn: operator.AggSum, ValueField: "price", GroupField: "symbol",
			Window: stream.CountWindow(1 + rng.Intn(8))}
	}
	return spec
}

// render is a result without the name of the fragment that emitted it.
func render(tu stream.Tuple) string { return strings.TrimPrefix(tu.String(), tu.Stream) }

// routedBatches is a seeded stream of quotes batches with a trades batch
// after every third, each stream with its own dense sequence.
func routedBatches(rng *rand.Rand, n int) []stream.Batch {
	var out []stream.Batch
	qseq, tseq := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		b := make(stream.Batch, 1+rng.Intn(24))
		for j := range b {
			b[j] = quote(qseq, fmt.Sprintf("S%02d", rng.Intn(20)), float64(rng.Intn(1000)), int64(rng.Intn(1000)))
			qseq++
		}
		out = append(out, b)
		if i%3 == 2 {
			tb := make(stream.Batch, 1+rng.Intn(8))
			for j := range tb {
				tb[j] = stream.NewTuple("trades", tseq, time.Unix(int64(tseq), 0).UTC(),
					stream.String(fmt.Sprintf("S%02d", rng.Intn(20))), stream.Int(int64(rng.Intn(1000))))
				tseq++
			}
			out = append(out, tb)
		}
	}
	return out
}

// TestFanoutRoutedDifferential: entities of one to three processors host
// a seeded mix of key-set and band filters, distinct and aggregate tails
// and one join, some split in two fragments, while other queries are
// placed and removed as the batches flow — so routes are rebuilt under
// the stream. Every standing query's result multiset equals what a bare
// MiniEngine computes from the same batches.
func TestFanoutRoutedDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nProcs := 1 + int(seed%3)
			var specs []engine.QuerySpec
			for i := 0; i < 11; i++ {
				specs = append(specs, randomSpec(rng, fmt.Sprintf("q%02d", i)))
			}
			// Placed last, the join lands off the quotes' delegation processor
			// whenever there is another one.
			specs = append(specs, engine.QuerySpec{ID: "join", Source: "quotes", Load: 1,
				Join:    &engine.JoinSpec{Stream: "trades", LeftKey: "symbol", RightKey: "symbol", Window: stream.CountWindow(6)},
				Filters: []engine.FilterSpec{{Field: "price", Lo: 0, Hi: 500}}})
			batches := routedBatches(rng, 120)

			cat := testCatalog(t)
			bare := engine.NewMini("bare", cat)
			defer bare.Close()
			want := make(map[string][]string)
			for _, spec := range specs {
				id := spec.ID
				if err := bare.Register(spec, func(tu stream.Tuple) { want[id] = append(want[id], render(tu)) }); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range batches {
				bare.IngestBatch(b)
			}

			e, err := New("e1", newLoopNet(), cat, nProcs, groupedFactory)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			var mu sync.Mutex
			got := make(map[string][]string)
			e.SetResultHandler(func(q string, b stream.Batch) {
				mu.Lock()
				for _, tu := range b {
					got[q] = append(got[q], render(tu))
				}
				mu.Unlock()
			})
			for _, spec := range specs {
				if err := e.PlaceQuery(spec, 1+rng.Intn(2)); err != nil {
					t.Fatal(err)
				}
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				crng := rand.New(rand.NewSource(seed + 100))
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					id := fmt.Sprintf("churn%d", k%4)
					if err := e.PlaceQuery(randomSpec(crng, id), 1+crng.Intn(2)); err != nil {
						t.Error(err)
						return
					}
					if _, err := e.RemoveQuery(id); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i, b := range batches {
				e.IngestBatch(b)
				if i%16 == 15 {
					settle(t, e)
				}
			}
			close(stop)
			wg.Wait()
			settle(t, e)
			if d := e.DroppedTotal(); d != 0 {
				t.Fatalf("engines dropped %d tuples; the differential run must be lossless", d)
			}
			mu.Lock()
			defer mu.Unlock()
			if e.Suppressed.Value() == 0 && nProcs > 1 {
				t.Error("no row was routed away: the mix does not exercise routing")
			}
			for _, spec := range specs {
				w, g := want[spec.ID], got[spec.ID]
				sort.Strings(w)
				sort.Strings(g)
				if !slices.Equal(g, w) {
					t.Errorf("query %s: the entity delivered %d results, a bare engine %d (or other ones)", spec.ID, len(g), len(w))
				}
			}
		})
	}
}

// TestFanoutConcurrentIngestsRoute: two goroutines ingest into one
// delegation processor at once (the relay's delivery beside an ent.ingest
// frame), so one may find the routing scratch taken and route through its
// own. Every stateless query still gets exactly the rows it matches.
func TestFanoutConcurrentIngestsRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var specs []engine.QuerySpec
	for i := 0; i < 12; i++ {
		spec := randomSpec(rng, fmt.Sprintf("q%02d", i))
		spec.Distinct, spec.Agg = nil, nil
		specs = append(specs, spec)
	}
	batches := routedBatches(rng, 200)
	cat := testCatalog(t)
	sc, _ := cat.Lookup("quotes")
	e, log := newFanoutEntity(t, 3, groupedFactory)
	for _, spec := range specs {
		if err := e.PlaceQuery(spec, 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(batches); i += 2 {
				e.IngestBatch(batches[i])
			}
		}()
	}
	wg.Wait()
	settle(t, e)
	got := log.multisets()
	for _, spec := range specs {
		var want []uint64
		in := spec.Interest("quotes", sc)
		for _, b := range batches {
			for _, tu := range b {
				if in.Matches(sc, tu) {
					want = append(want, tu.Seq)
				}
			}
		}
		slices.Sort(want)
		if !slices.Equal(got[spec.ID], want) {
			t.Errorf("query %s: %d results, want %d (or other seqs)", spec.ID, len(got[spec.ID]), len(want))
		}
	}
	if e.Suppressed.Value() == 0 {
		t.Error("no row was routed away: the queries do not exercise routing")
	}
}
