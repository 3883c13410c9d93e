package dissemination

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sspd/internal/simnet"
	"sspd/internal/stream"
	"sspd/internal/trace"
)

func quotesSchema() *stream.Schema {
	return stream.MustSchema("quotes",
		stream.Field{Name: "symbol", Type: stream.KindString, Card: 100},
		stream.Field{Name: "price", Type: stream.KindFloat, Lo: 0, Hi: 1000},
	)
}

func quote(seq uint64, symbol string, price float64) stream.Tuple {
	return stream.NewTuple("quotes", seq, time.Unix(int64(seq), 0).UTC(),
		stream.String(symbol), stream.Float(price))
}

// deliverySink collects delivered tuples safely.
type deliverySink struct {
	mu  sync.Mutex
	got []stream.Tuple
}

func (d *deliverySink) deliver(t stream.Tuple) {
	d.mu.Lock()
	d.got = append(d.got, t)
	d.mu.Unlock()
}

func (d *deliverySink) count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.got)
}

// buildChain wires src -> e00 -> e01 relays on a fresh SimNet.
func buildChain(t *testing.T) (*simnet.SimNet, *Relay, *Relay, *Relay, *deliverySink, *deliverySink) {
	t.Helper()
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	members := []Member{
		{ID: "e00", Pos: simnet.Point{X: 10}},
		{ID: "e01", Pos: simnet.Point{X: 20}},
	}
	tr, err := Build("quotes", testSource, members, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := quotesSchema()
	src, err := NewRelay(tr, "src", sc, net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := &deliverySink{}, &deliverySink{}
	r0, err := NewRelay(tr, "e00", sc, net, s0.deliver, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRelay(tr, "e01", sc, net, s1.deliver, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, src, r0, r1, s0, s1
}

func TestRelayConstructionErrors(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	tr, _ := Build("quotes", testSource, mkMembers(2), Balanced, 2)
	sc := quotesSchema()
	if _, err := NewRelay(nil, "e00", sc, net, nil, 0); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := NewRelay(tr, "e00", nil, net, nil, 0); err == nil {
		t.Error("nil schema accepted")
	}
	if _, err := NewRelay(tr, "e00", sc, nil, nil, 0); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewRelay(tr, "stranger", sc, net, nil, 0); err == nil {
		t.Error("non-member accepted")
	}
}

func TestRelayForwardAllBeforeRegistration(t *testing.T) {
	net, src, _, _, s0, s1 := buildChain(t)
	// Give both relays unconstrained local interest so everything is
	// delivered (registration also happens, matching everything).
	_, r0, r1 := src, src, src
	_ = r0
	_ = r1
	if err := src.Publish(stream.Batch{quote(1, "ibm", 10), quote(2, "msft", 20)}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	// Without local interest nothing is delivered, but tuples still
	// flow down (children had no registration -> forward all).
	if s0.count() != 0 || s1.count() != 0 {
		t.Errorf("delivered without local interest: %d/%d", s0.count(), s1.count())
	}
	if net.Traffic().LinkBytes("src", "e00") == 0 {
		t.Error("no bytes on src->e00")
	}
	if net.Traffic().LinkBytes("e00", "e01") == 0 {
		t.Error("no bytes on e00->e01 (chain relay broken)")
	}
}

func TestRelayDeliversMatchingTuples(t *testing.T) {
	net, src, r0, r1, s0, s1 := buildChain(t)
	if err := r0.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 0, 50),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithKeys("symbol", "msft"),
	}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce (registrations)")
	}
	if err := src.Publish(stream.Batch{
		quote(1, "ibm", 10),   // r0 only
		quote(2, "msft", 500), // r1 only
		quote(3, "goog", 999), // nobody
	}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce (tuples)")
	}
	if s0.count() != 1 {
		t.Errorf("e00 delivered %d, want 1", s0.count())
	}
	if s1.count() != 1 {
		t.Errorf("e01 delivered %d, want 1", s1.count())
	}
	// Early filtering: tuple 3 matches nobody, so the source should
	// not even put it on the wire once interests are registered.
	if src.Suppressed.Value() == 0 {
		t.Error("source suppressed nothing")
	}
}

func TestEarlyFilteringReducesDownstreamBytes(t *testing.T) {
	// Two chains: one with narrow registered interests, one with
	// unconstrained interests. The filtered chain must move fewer bytes.
	run := func(narrow bool) int64 {
		net := simnet.NewSim(nil)
		defer net.Close()
		members := []Member{
			{ID: "e00", Pos: simnet.Point{X: 10}},
			{ID: "e01", Pos: simnet.Point{X: 20}},
		}
		tr, err := Build("quotes", testSource, members, Balanced, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc := quotesSchema()
		src, err := NewRelay(tr, "src", sc, net, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		sink := &deliverySink{}
		r0, err := NewRelay(tr, "e00", sc, net, sink.deliver, 0)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := NewRelay(tr, "e01", sc, net, sink.deliver, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := stream.NewInterest("quotes")
		if narrow {
			in = in.WithRange("price", 0, 100) // 10% of the domain
		}
		if err := r0.SetLocalInterest([]stream.Interest{in}); err != nil {
			t.Fatal(err)
		}
		if err := r1.SetLocalInterest([]stream.Interest{in}); err != nil {
			t.Fatal(err)
		}
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
		net.Traffic().Reset()
		var batch stream.Batch
		for i := 0; i < 200; i++ {
			batch = append(batch, quote(uint64(i), "ibm", float64(i*5%1000)))
		}
		if err := src.Publish(batch); err != nil {
			t.Fatal(err)
		}
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
		return net.Traffic().TotalBytes()
	}
	narrowBytes := run(true)
	wideBytes := run(false)
	if narrowBytes*2 >= wideBytes {
		t.Errorf("early filtering saved too little: narrow=%d wide=%d", narrowBytes, wideBytes)
	}
}

func TestPublishOnlyFromSource(t *testing.T) {
	_, _, r0, _, _, _ := buildChain(t)
	if err := r0.Publish(stream.Batch{quote(1, "a", 1)}); err == nil {
		t.Error("non-source publish accepted")
	}
}

func TestRelayIDAndClose(t *testing.T) {
	net, _, r0, _, _, _ := buildChain(t)
	if r0.ID() != "e00" {
		t.Errorf("ID = %s", r0.ID())
	}
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	// Transport endpoint is gone.
	if err := net.Send("src", "e00", KindTuples, nil); err == nil {
		t.Error("send to closed relay accepted")
	}
}

func TestInterestSetCodecRoundTrip(t *testing.T) {
	set := stream.NewInterestSet("quotes")
	set.Add(stream.NewInterest("quotes").WithRange("price", 5, 10).WithKeys("symbol", "a", "b"))
	set.Add(stream.NewInterest("quotes"))
	payload, err := encodeInterestSet(set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeInterestSet(payload, "quotes")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Terms) != 2 {
		t.Fatalf("terms = %d", len(got.Terms))
	}
	sc := quotesSchema()
	if !got.Matches(sc, quote(1, "a", 7)) {
		t.Error("decoded set rejects matching tuple")
	}
	if _, err := decodeInterestSet(payload, "other"); err == nil {
		t.Error("wrong-stream decode accepted")
	}
	if _, err := decodeInterestSet([]byte("{"), "quotes"); err == nil {
		t.Error("corrupt payload accepted")
	}
	// A query whose filter steps exclude each other registers an empty
	// range or an empty key set. Both must arrive at the parent as they
	// left — still constraints, still matching nothing — or the parent
	// would forward the whole stream for a query that wants none of it.
	none := stream.NewInterestSet("quotes")
	none.Add(stream.NewInterest("quotes").WithRange("price", 60, 50))
	none.Add(stream.NewInterest("quotes").WithKeys("symbol"))
	if payload, err = encodeInterestSet(none); err != nil {
		t.Fatal(err)
	}
	if got, err = decodeInterestSet(payload, "quotes"); err != nil {
		t.Fatal(err)
	}
	if len(got.Terms) != 2 || !got.Terms[0].Ranges["price"].Empty() || got.Terms[1].Unconstrained() || len(got.Terms[1].Keys["symbol"]) != 0 {
		t.Fatalf("empty constraints decoded as %v", got.Terms)
	}
	compiled := stream.CompileSet(got, sc)
	for _, tu := range []stream.Tuple{quote(1, "a", 55), quote(2, "", 50), quote(3, "b", 60)} {
		if got.Matches(sc, tu) || compiled.Matches(tu) {
			t.Errorf("empty interest matches %v after the round trip", tu)
		}
	}
}

func TestAggregateIncludesChildren(t *testing.T) {
	// Three-level chain: e01's interest must reach src through e00's
	// aggregate, so src forwards tuples that only e01 wants.
	net, src, r0, r1, s0, s1 := buildChain(t)
	if err := r0.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 0, 10),
	}); err != nil {
		t.Fatal(err)
	}
	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 900, 1000),
	}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if err := src.Publish(stream.Batch{quote(1, "x", 950)}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("quiesce")
	}
	if s1.count() != 1 {
		t.Errorf("grandchild delivered %d, want 1", s1.count())
	}
	if s0.count() != 0 {
		t.Errorf("middle node delivered %d, want 0", s0.count())
	}
}

func TestManyRelaysFanout(t *testing.T) {
	net := simnet.NewSim(nil)
	defer net.Close()
	members := mkMembers(15)
	tr, err := Build("quotes", testSource, members, Balanced, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := quotesSchema()
	src, err := NewRelay(tr, "src", sc, net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sinks := make(map[simnet.NodeID]*deliverySink)
	var relays []*Relay
	for _, m := range members {
		sink := &deliverySink{}
		sinks[m.ID] = sink
		r, err := NewRelay(tr, m.ID, sc, net, sink.deliver, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes")}); err != nil {
			t.Fatal(err)
		}
		relays = append(relays, r)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	if err := src.Publish(stream.Batch{quote(1, "ibm", 50)}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(2 * time.Second) {
		t.Fatal("quiesce")
	}
	for id, sink := range sinks {
		if sink.count() != 1 {
			t.Errorf("%s delivered %d, want 1", id, sink.count())
		}
	}
	// Source egress is bounded by fanout: it sent to exactly 3 children.
	srcEgress := net.Traffic().EgressBytes("src")
	total := net.Traffic().TotalBytes()
	if srcEgress*3 > total {
		t.Errorf("source egress %d not a small share of total %d", srcEgress, total)
	}
	_ = relays
}

// TestRelaySpanPropagation is the trace-propagation contract: a sampled
// tuple relayed src -> e00 -> e01 keeps its span across the transport
// boundary (the codec carries it) and each relay on the path records a
// hop, ending in the delivery hop at the interested entity.
func TestRelaySpanPropagation(t *testing.T) {
	net, src, r0, r1, s0, s1 := buildChain(t)
	_ = r0
	tr := trace.New(1, 64)
	trace.SetActive(tr)
	t.Cleanup(func() { trace.SetActive(nil) })

	// Only the far entity (two hops away) is interested.
	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 0, 1000),
	}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("registration did not settle")
	}

	tu := quote(1, "ibm", 100)
	tu.Span = uint64(tr.Sample("quotes", tu.Seq, "src"))
	if tu.Span == 0 {
		t.Fatal("sampling must assign a span")
	}
	if err := src.Publish(stream.Batch{tu}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("publish did not settle")
	}
	if s0.count() != 0 {
		t.Fatalf("uninterested relay delivered %d tuples", s0.count())
	}
	s1.mu.Lock()
	got := append([]stream.Tuple(nil), s1.got...)
	s1.mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("delivered %d tuples, want 1", len(got))
	}
	if got[0].Span != tu.Span {
		t.Fatalf("span lost in relay: got %d want %d", got[0].Span, tu.Span)
	}

	span, ok := tr.Get(trace.SpanID(tu.Span))
	if !ok {
		t.Fatal("span not in tracer")
	}
	var stages []string
	for _, h := range span.Hops {
		stages = append(stages, h.Stage+"@"+h.Node)
	}
	want := []string{
		trace.StagePublish + "@src",
		trace.StageRelay + "@src",
		trace.StageRelay + "@e00",
		trace.StageRelay + "@e01",
		trace.StageDeliver + "@e01",
	}
	if len(stages) != len(want) {
		t.Fatalf("hops = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("hop %d = %q, want %q (all: %v)", i, stages[i], want[i], stages)
		}
	}
}

// TestRelayLinkBytesMeter checks the downstream link byte meter counts
// the bytes of the frame the link carried.
func TestRelayLinkBytesMeter(t *testing.T) {
	net, src, _, r1, _, _ := buildChain(t)
	if err := r1.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithRange("price", 0, 1000),
	}); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("registration did not settle")
	}
	batch := stream.Batch{quote(1, "ibm", 100), quote(2, "msft", 200)}
	if err := src.Publish(batch); err != nil {
		t.Fatal(err)
	}
	if !net.Quiesce(time.Second) {
		t.Fatal("publish did not settle")
	}
	if src.LinkBytes.Messages() != 1 {
		t.Fatalf("source sent %d link messages, want 1", src.LinkBytes.Messages())
	}
	want := int64(len(stream.AppendBatch(nil, batch)))
	if src.LinkBytes.Bytes() != want {
		t.Fatalf("source link bytes = %d, want %d", src.LinkBytes.Bytes(), want)
	}
}

// ID returns the relay's transport endpoint.
func (r *Relay) ID() simnet.NodeID { return r.self }

// tapNet is a SimNet that records every tuple batch sent and received:
// a copy of its bytes, and the backing array it was read from. The
// array is kept for identity only: a sent payload is lent to Send and a
// received one to the handler, each for the call.
type tapNet struct {
	*simnet.SimNet
	mu   sync.Mutex
	out  []tapMsg
	recv map[simnet.NodeID][]tapMsg
}

type tapMsg struct {
	to    simnet.NodeID
	bytes []byte
	array *byte
}

func tap(to simnet.NodeID, payload []byte) tapMsg {
	return tapMsg{to: to, bytes: bytes.Clone(payload), array: &payload[0]}
}

func (n *tapNet) Register(id simnet.NodeID, h simnet.Handler) error {
	return n.SimNet.Register(id, func(m simnet.Message) {
		if m.Kind == KindTuples {
			n.mu.Lock()
			n.recv[id] = append(n.recv[id], tap(id, m.Payload))
			n.mu.Unlock()
		}
		h(m)
	})
}

func (n *tapNet) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if kind == KindTuples {
		n.mu.Lock()
		n.out = append(n.out, tap(to, payload))
		n.mu.Unlock()
	}
	return n.SimNet.Send(from, to, kind, payload)
}

// take returns and clears what was sent and received since the last call.
func (n *tapNet) take() ([]tapMsg, map[simnet.NodeID][]tapMsg) {
	n.mu.Lock()
	defer n.mu.Unlock()
	out, recv := n.out, n.recv
	n.out, n.recv = nil, make(map[simnet.NodeID][]tapMsg)
	return out, recv
}

// TestRelayForwardsVerbatim: on a src → e00 → e01 chain, the middle
// relay forwards a fully matched batch from the very bytes it received,
// taking no encode buffer for it, and e01 receives them byte-identical.
// A partially matched batch is re-encoded. Every send arrives as a copy:
// Send is lent its payload.
func TestRelayForwardsVerbatim(t *testing.T) {
	net := &tapNet{SimNet: simnet.NewSim(nil), recv: make(map[simnet.NodeID][]tapMsg)}
	t.Cleanup(func() { net.Close() })
	tr, err := Build("quotes", testSource, []Member{
		{ID: "e00", Pos: simnet.Point{X: 10}},
		{ID: "e01", Pos: simnet.Point{X: 20}},
	}, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := quotesSchema()
	src, err := NewRelay(tr, "src", sc, net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := &deliverySink{}, &deliverySink{}
	r0, err := NewRelay(tr, "e00", sc, net, s0.deliver, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := NewRelay(tr, "e01", sc, net, s1.deliver, 0)
	if err != nil {
		t.Fatal(err)
	}
	publish := func(batch stream.Batch) (sent, atE00, atE01 tapMsg) {
		t.Helper()
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce (registrations)")
		}
		net.take()
		if err := src.Publish(batch); err != nil {
			t.Fatal(err)
		}
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce (tuples)")
		}
		out, recv := net.take()
		if len(out) != 2 || out[0].to != "e00" || out[1].to != "e01" || len(recv["e00"]) != 1 || len(recv["e01"]) != 1 {
			t.Fatalf("one batch should cross each link once: sent %v, received %v", out, recv)
		}
		for i, m := range []tapMsg{recv["e00"][0], recv["e01"][0]} {
			if m.array == out[i].array || !bytes.Equal(m.bytes, out[i].bytes) {
				t.Fatalf("the batch to %s should arrive as a byte-identical copy of what was sent", out[i].to)
			}
		}
		return out[1], recv["e00"][0], recv["e01"][0]
	}

	// e01 wants every quote, e00 nothing: e00 forwards the whole batch.
	if err := r1.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes")}); err != nil {
		t.Fatal(err)
	}
	sent, atE00, atE01 := publish(stream.Batch{quote(1, "ibm", 10), quote(2, "msft", 20)})
	if sent.array != atE00.array || !bytes.Equal(atE01.bytes, atE00.bytes) {
		t.Fatal("e00 should send e01 the very bytes it received, and e01 receive them verbatim")
	}
	if s0.count() != 0 || s1.count() != 2 {
		t.Fatalf("delivered %d/%d, want 0/2", s0.count(), s1.count())
	}

	// e00 wants every quote, e01 only msft: e00 re-encodes e01's row.
	if err := r0.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes")}); err != nil {
		t.Fatal(err)
	}
	if err := r1.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes").WithKeys("symbol", "msft")}); err != nil {
		t.Fatal(err)
	}
	sent, atE00, atE01 = publish(stream.Batch{quote(3, "ibm", 10), quote(4, "msft", 20)})
	if sent.array == atE00.array {
		t.Fatal("a partially matched batch should be re-encoded, not sent from the received bytes")
	}
	dec, _, err := stream.DecodeBatch(atE01.bytes)
	if err != nil || len(dec) != 1 || dec[0].Values[0].AsString() != "msft" {
		t.Fatalf("e01 received %v (%v), want the msft row only", dec, err)
	}
	if s0.count() != 2 || s1.count() != 3 {
		t.Fatalf("delivered %d/%d, want 2/3", s0.count(), s1.count())
	}
}

// TestRelayChainAllocatesNothingWarm: a batch published into a src →
// e00 → e01 chain over SimNet allocates nothing in steady state, on
// either link: the source's pooled encode and e00's verbatim forward are
// both copied into the receiving node's reused arena, and each relay
// decodes into a pooled buffer and lends its rows to DeliverBatch. The
// pools are sync.Pools, which drop items at random under -race, so the
// exact count holds only without it.
func TestRelayChainAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; exact counts only hold without -race")
	}
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	tr, err := Build("quotes", testSource, []Member{
		{ID: "e00", Pos: simnet.Point{X: 10}},
		{ID: "e01", Pos: simnet.Point{X: 20}},
	}, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := quotesSchema()
	var delivered [2]atomic.Int64
	relay := func(id simnet.NodeID, rows *atomic.Int64) *Relay {
		r, err := NewRelayWith(tr, id, sc, net, nil, RelayOptions{
			DeliverBatch: func(b stream.Batch) { rows.Add(int64(len(b))) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	src, err := NewRelay(tr, "src", sc, net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := relay("e00", &delivered[0]), relay("e01", &delivered[1])
	// e00 keeps the ibm half; e01 wants every quote, so e00 forwards the
	// whole batch verbatim.
	if err := r0.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes").WithKeys("symbol", "ibm")}); err != nil {
		t.Fatal(err)
	}
	if err := r1.SetLocalInterest([]stream.Interest{stream.NewInterest("quotes")}); err != nil {
		t.Fatal(err)
	}
	batch := quoteBatch(64)
	publish := func() {
		if err := src.Publish(batch); err != nil {
			t.Fatal(err)
		}
		if !net.Quiesce(5 * time.Second) {
			t.Fatal("quiesce timeout")
		}
	}
	for i := 0; i < 10; i++ { // warm up: pools, decode buffers, arenas
		publish()
	}
	if d0, d1 := delivered[0].Load(), delivered[1].Load(); d0 != 10*32 || d1 != 10*64 {
		t.Fatalf("delivered %d/%d rows, want %d/%d", d0, d1, 10*32, 10*64)
	}
	if allocs := testing.AllocsPerRun(200, publish); allocs != 0 {
		t.Fatalf("a warm published batch allocated %.2f times on its way through the chain, want 0", allocs)
	}
}
