package dissemination

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// hubTree builds src -> hub -> {c0 … c(n-1)}: a mid-tree relay with n
// children, so it can be driven with HandleTuples (an incoming wire
// payload) and has a parent to register with.
func hubTree(t *testing.T, n int) *Tree {
	t.Helper()
	tr, err := Build("quotes", testSource, []Member{{ID: "hub", Pos: simnet.Point{X: 10}}}, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		addHubChild(t, tr, i, n)
	}
	if got := tr.Children("hub"); len(got) != n {
		t.Fatalf("hub has children %v, want %d", got, n)
	}
	return tr
}

func hubChild(i int) simnet.NodeID { return simnet.NodeID(fmt.Sprintf("c%02d", i)) }

// addHubChild attaches child i under hub, wherever the locality rule put
// it first.
func addHubChild(t *testing.T, tr *Tree, i, fanout int) {
	t.Helper()
	id := hubChild(i)
	rw, err := tr.AddMember(Member{ID: id, Pos: simnet.Point{X: 11, Y: float64(i)}}, fanout)
	if err != nil {
		t.Fatal(err)
	}
	if rw.NewParent != "hub" {
		if err := tr.ApplyRewire(Rewire{Child: id, OldParent: rw.NewParent, NewParent: "hub"}, fanout); err != nil {
			t.Fatal(err)
		}
	}
}

func registration(t *testing.T, terms ...stream.Interest) (*stream.InterestSet, []byte) {
	t.Helper()
	set := stream.NewInterestSet("quotes")
	for _, in := range terms {
		set.Add(in)
	}
	payload, err := encodeInterestSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return set, payload
}

// mixedBatch is n quotes over four symbols and prices 0–99, seqs from
// base.
func mixedBatch(base uint64, n int) stream.Batch {
	symbols := []string{"ibm", "aapl", "msft", "goog"}
	b := make(stream.Batch, 0, n)
	for i := 0; i < n; i++ {
		b = append(b, quote(base+uint64(i), symbols[(i*5+i/4)%len(symbols)], float64((i*37)%100)))
	}
	return b
}

func seqs(b stream.Batch) []uint64 {
	out := make([]uint64, len(b))
	for i, tu := range b {
		out[i] = tu.Seq
	}
	return out
}

// matching is the reference: the seqs of the batch the interpreted set
// accepts, every seq when there is no registration.
func matching(set *stream.InterestSet, sc *stream.Schema, b stream.Batch) []uint64 {
	out := []uint64{}
	for _, tu := range b {
		if set == nil || set.Matches(sc, tu) {
			out = append(out, tu.Seq)
		}
	}
	return out
}

// TestRelayIndexFollowsRegistrations: a registration change, a
// DropChild and a tree rewire between two batches each take effect on
// the very next batch; a child without a registration gets the incoming
// wire slice verbatim; and after every batch what each child and the
// entity received, and Relayed / Suppressed / Delivered, equal a
// per-child reference computed with the interpreted InterestSet.Matches.
func TestRelayIndexFollowsRegistrations(t *testing.T) {
	tp := newCaptureTransport()
	tr := hubTree(t, 3)
	sc := quotesSchema()
	var delivered stream.Batch
	rel, err := NewRelayWith(tr, "hub", sc, tp, nil, RelayOptions{
		DeliverBatch: func(b stream.Batch) { delivered = append(delivered, b...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })

	var local *stream.InterestSet // what the reference believes is registered
	regs := map[simnet.NodeID]*stream.InterestSet{}
	var relayed, suppressed, deliveredN int64
	next := uint64(0)
	step := func(name string) {
		t.Helper()
		batch := mixedBatch(next, 32)
		next += 32
		wire := stream.AppendBatch(nil, batch)
		delivered = delivered[:0]
		tp.take() // registrations sent upward since the last batch
		rel.HandleTuples(wire)
		got := map[simnet.NodeID]capturedMsg{}
		for _, m := range tp.take() {
			if m.kind == KindTuples {
				got[m.to] = m
			}
		}
		children := tr.Children("hub")
		for _, c := range children {
			want := matching(regs[c], sc, batch)
			relayed += int64(len(want))
			suppressed += int64(len(batch) - len(want))
			m, sent := got[c]
			delete(got, c)
			if len(want) == 0 {
				if sent {
					t.Fatalf("%s: %s matched nothing but was sent a payload", name, c)
				}
				continue
			}
			if !sent {
				t.Fatalf("%s: %s got no payload, want seqs %v", name, c, want)
			}
			dec, _, err := stream.DecodeBatch(m.snapshot)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(seqs(dec)) != fmt.Sprint(want) {
				t.Fatalf("%s: %s got seqs %v, want %v", name, c, seqs(dec), want)
			}
			if verbatim := &m.payload[0] == &wire[0]; verbatim != (len(want) == len(batch)) {
				t.Fatalf("%s: %s matched %d of %d rows, payload verbatim = %v", name, c, len(want), len(batch), verbatim)
			}
		}
		for c := range got {
			t.Fatalf("%s: payload sent to %s, which is not a child (children %v)", name, c, children)
		}
		wantLocal := []uint64{}
		if local != nil {
			wantLocal = matching(local, sc, batch)
		}
		deliveredN += int64(len(wantLocal))
		if fmt.Sprint(seqs(delivered)) != fmt.Sprint(wantLocal) {
			t.Fatalf("%s: delivered seqs %v, want %v", name, seqs(delivered), wantLocal)
		}
		if r, s, d := rel.Relayed.Value(), rel.Suppressed.Value(), rel.Delivered.Value(); r != relayed || s != suppressed || d != deliveredN {
			t.Fatalf("%s: Relayed/Suppressed/Delivered = %d/%d/%d, reference %d/%d/%d",
				name, r, s, d, relayed, suppressed, deliveredN)
		}
	}
	register := func(c simnet.NodeID, terms ...stream.Interest) {
		t.Helper()
		set, payload := registration(t, terms...)
		rel.handle(simnet.Message{From: c, To: "hub", Kind: KindInterest, Payload: payload})
		regs[c] = set
	}
	q := stream.NewInterest("quotes")

	step("nothing registered: every child takes the wire verbatim")
	local, _ = registration(t, q.WithKeys("symbol", "ibm").WithRange("price", 0, 60), q.WithRange("price", 90, 100))
	if err := rel.SetLocalInterest(local.Terms); err != nil {
		t.Fatal(err)
	}
	step("local interest set")
	register(hubChild(0), q.WithKeys("symbol", "ibm"))
	register(hubChild(1), q.WithRange("price", 0, 50), q.WithKeys("symbol", "goog").WithRange("price", 40, 80))
	step("two children registered, c02 still unregistered")
	register(hubChild(0), q.WithKeys("symbol", "aapl", "msft").WithRange("price", 20, 100))
	step("c00 re-registered")
	register(hubChild(1), q.WithKeys("symbol", "none"))
	step("c01 matches nothing")
	rel.DropChild(hubChild(1))
	delete(regs, hubChild(1))
	step("c01's registration dropped: back to everything")
	register(hubChild(1), q.WithKeys("symbol", "goog"))
	step("c01 registered again")
	register(hubChild(1), q)
	step("c01 unconstrained: verbatim again")
	if err := tr.ApplyRewire(Rewire{Child: hubChild(1), OldParent: "hub", NewParent: hubChild(0)}, 3); err != nil {
		t.Fatal(err)
	}
	step("c01 rewired under c00")
	addHubChild(t, tr, 3, 3)
	step("c03 joined")
	if err := rel.SetLocalInterest(nil); err != nil {
		t.Fatal(err)
	}
	local = nil
	step("local interest withdrawn")
	if relayed == 0 || suppressed == 0 || deliveredN == 0 {
		t.Fatalf("degenerate run: reference relayed %d, suppressed %d, delivered %d", relayed, suppressed, deliveredN)
	}
}

// TestRelayHubZeroAllocs extends the allocation guards to the shape the
// index was built for: a source fanning out to 12 children that watch 8
// symbols and a price band each, local delivery off. Matching, splitting
// and the pooled re-encode of twelve sub-batches allocate nothing per
// batch in steady state.
func TestRelayHubZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates; exact counts only hold without -race")
	}
	members := make([]Member, 12)
	for i := range members {
		members[i] = Member{ID: hubChild(i), Pos: simnet.Point{X: float64(i + 1)}}
	}
	tr, err := Build("quotes", testSource, members, SourceDirect, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelay(tr, testSource.ID, quotesSchema(), newNullTransport(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	batch := make(stream.Batch, 0, 64)
	for i, m := range members {
		keys := make([]string, 8)
		for k := range keys {
			keys[k] = fmt.Sprintf("S%03d", i*8+k)
		}
		_, payload := registration(t, stream.NewInterest("quotes").WithKeys("symbol", keys...).WithRange("price", 0, 75))
		rel.handle(simnet.Message{From: m.ID, To: testSource.ID, Kind: KindInterest, Payload: payload})
	}
	for i := 0; i < 64; i++ {
		batch = append(batch, quote(uint64(i), fmt.Sprintf("S%03d", (i*7)%96), float64((i*13)%100)))
	}
	for i := 0; i < 10; i++ { // warmup: pools, the index
		if err := rel.Publish(batch); err != nil {
			t.Fatal(err)
		}
	}
	before := rel.Relayed.Value()
	allocs := testing.AllocsPerRun(200, func() { _ = rel.Publish(batch) })
	if allocs != 0 {
		t.Fatalf("12-child hub allocated %.2f times per batch, want 0", allocs)
	}
	if rel.Relayed.Value() == before || rel.Suppressed.Value() == 0 {
		t.Fatalf("the guard measured an idle hub: relayed %d, suppressed %d", rel.Relayed.Value(), rel.Suppressed.Value())
	}
}

// recordingTransport decodes every tuple payload as it is sent and keeps
// the seqs per destination; everything else is dropped.
type recordingTransport struct {
	nullTransport
	mu   sync.Mutex
	seqs map[simnet.NodeID][]uint64
}

func (r *recordingTransport) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if kind != KindTuples {
		return nil
	}
	dec, _, err := stream.DecodeBatch(payload)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.seqs[to] = append(r.seqs[to], seqs(dec)...)
	r.mu.Unlock()
	return nil
}

func (r *recordingTransport) take() map[simnet.NodeID][]uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.seqs
	r.seqs = map[simnet.NodeID][]uint64{}
	return out
}

// TestRelayRegistrationsRaceBatches: registrations, local-interest
// changes and DropChild hammer a relay while batches flow through it
// from two goroutines (run under -race). While they do, every tuple a
// consumer receives is one that one of its alternating registrations
// accepts; once they stop, the relay delivers exactly the reference
// multiset of the final registrations — no batch is routed by a stale
// index, none by a half-built one.
func TestRelayRegistrationsRaceBatches(t *testing.T) {
	const children = 4
	tp := &recordingTransport{nullTransport: *newNullTransport(), seqs: map[simnet.NodeID][]uint64{}}
	tr := hubTree(t, children)
	sc := quotesSchema()
	var dmu sync.Mutex
	var delivered []uint64
	rel, err := NewRelayWith(tr, "hub", sc, tp, nil, RelayOptions{
		DeliverBatch: func(b stream.Batch) {
			dmu.Lock()
			delivered = append(delivered, seqs(b)...)
			dmu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })

	q := stream.NewInterest("quotes")
	symbols := []string{"ibm", "aapl", "msft", "goog"}
	// Consumer i alternates between two registrations; consumer children
	// is the entity's local set.
	var alt [children + 1][2]*stream.InterestSet
	var altPayload [children][2][]byte
	for i := range alt {
		a, pa := registration(t, q.WithKeys("symbol", symbols[i%4]).WithRange("price", 0, 70))
		b, pb := registration(t, q.WithKeys("symbol", symbols[(i+1)%4], symbols[(i+2)%4]), q.WithRange("price", float64(10*i), float64(10*i+15)))
		alt[i] = [2]*stream.InterestSet{a, b}
		if i < children {
			altPayload[i] = [2][]byte{pa, pb}
		}
	}
	apply := func(round int) {
		which := round % 2
		for i := 0; i < children; i++ {
			if round%5 == 4 && i == children-1 {
				rel.DropChild(hubChild(i)) // the next round's registration brings it back
				continue
			}
			rel.handle(simnet.Message{From: hubChild(i), To: "hub", Kind: KindInterest, Payload: altPayload[i][which]})
		}
		if err := rel.SetLocalInterest(alt[children][which].Terms); err != nil {
			t.Fatal(err)
		}
	}

	// Every batch starts at a multiple of batchLen and mixedBatch's values
	// depend on the offset alone, so a received seq names its values.
	const batchLen = 32
	pattern := mixedBatch(0, batchLen)
	tupleOf := func(seq uint64) stream.Tuple { return pattern[seq%batchLen] }
	apply(0) // nobody is unregistered (and so taking everything) when tuples start
	stop := make(chan struct{})
	var publishers sync.WaitGroup
	for p := 0; p < 2; p++ {
		publishers.Add(1)
		go func(p int) {
			defer publishers.Done()
			for k := uint64(0); ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				base := (2*k + uint64(p)) * batchLen
				rel.HandleTuples(stream.AppendBatch(nil, mixedBatch(base, batchLen)))
			}
		}(p)
	}
	for round := 1; round < 300; round++ {
		apply(round)
	}
	close(stop)
	publishers.Wait()

	// While registrations churned: nothing outside the union of a
	// consumer's two registrations (the last child, whose registration
	// was dropped now and then, may have taken anything).
	churned := tp.take()
	for i := 0; i < children-1; i++ {
		for _, seq := range churned[hubChild(i)] {
			tu := tupleOf(seq)
			if !alt[i][0].Matches(sc, tu) && !alt[i][1].Matches(sc, tu) {
				t.Fatalf("%s received seq %d (%v) that neither of its registrations accepts", hubChild(i), seq, tu)
			}
		}
	}
	dmu.Lock()
	for _, seq := range delivered {
		tu := tupleOf(seq)
		if !alt[children][0].Matches(sc, tu) && !alt[children][1].Matches(sc, tu) {
			t.Fatalf("entity received seq %d (%v) that neither local interest accepts", seq, tu)
		}
	}
	delivered = delivered[:0]
	dmu.Unlock()

	// Registrations stopped after round 299: everybody holds its second
	// registration, except the last child, which that round dropped.
	final := [children + 1]*stream.InterestSet{}
	for i := range final {
		final[i] = alt[i][1]
	}
	final[children-1] = nil
	want := make([][]uint64, children+1)
	const base = uint64(1) << 40
	for k := uint64(0); k < 20; k++ {
		batch := mixedBatch(base+k*batchLen, batchLen)
		for i := range want {
			want[i] = append(want[i], matching(final[i], sc, batch)...)
		}
		rel.HandleTuples(stream.AppendBatch(nil, batch))
	}
	settled := tp.take()
	for i := 0; i < children; i++ {
		got := settled[hubChild(i)]
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("%s after registrations stopped: got %d seqs, want %d\ngot  %v\nwant %v",
				hubChild(i), len(got), len(want[i]), got, want[i])
		}
	}
	dmu.Lock()
	defer dmu.Unlock()
	if fmt.Sprint(delivered) != fmt.Sprint(want[children]) {
		t.Fatalf("entity after registrations stopped: got %v, want %v", delivered, want[children])
	}
	if len(want[0])+len(want[1])+len(want[2]) == 0 || len(want[children]) == 0 {
		t.Fatal("degenerate run: the final registrations accept nothing")
	}
}
