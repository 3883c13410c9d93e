package dissemination

import (
	"sync"
	"testing"
	"time"

	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// capturedMsg records one send: the original payload slice (for
// pointer-identity checks) plus a copy taken synchronously inside Send —
// the Transport.Send contract says the original may be reused once Send
// returns, so only the copy is safe to decode later.
type capturedMsg struct {
	to       simnet.NodeID
	kind     string
	payload  []byte
	snapshot []byte
}

// captureTransport records every sent payload without delivering it —
// enough to drive one relay's fan-out in isolation.
type captureTransport struct {
	mu      sync.Mutex
	traffic *simnet.Traffic
	sent    []capturedMsg
}

func newCaptureTransport() *captureTransport {
	return &captureTransport{traffic: simnet.NewTraffic()}
}

func (c *captureTransport) Register(id simnet.NodeID, h simnet.Handler) error { return nil }
func (c *captureTransport) Deregister(id simnet.NodeID) error                 { return nil }
func (c *captureTransport) Traffic() *simnet.Traffic                          { return c.traffic }
func (c *captureTransport) Close() error                                      { return nil }

func (c *captureTransport) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	snap := make([]byte, len(payload))
	copy(snap, payload)
	c.mu.Lock()
	c.sent = append(c.sent, capturedMsg{to: to, kind: kind, payload: payload, snapshot: snap})
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) take() []capturedMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.sent
	c.sent = nil
	return out
}

// nullTransport drops everything — the zero-overhead sink the alloc
// guard and the tuple-path bench measure against.
type nullTransport struct{ traffic *simnet.Traffic }

func newNullTransport() *nullTransport { return &nullTransport{traffic: simnet.NewTraffic()} }

func (n *nullTransport) Register(id simnet.NodeID, h simnet.Handler) error          { return nil }
func (n *nullTransport) Deregister(id simnet.NodeID) error                          { return nil }
func (n *nullTransport) Traffic() *simnet.Traffic                                   { return n.traffic }
func (n *nullTransport) Close() error                                               { return nil }
func (n *nullTransport) Send(from, to simnet.NodeID, kind string, payload []byte) error { return nil }

// midRelay builds src -> mid -> {leaf0, leaf1} and returns the middle
// relay attached to the given transport (src and leaves are not
// attached; the test drives mid directly via HandleTuples).
func midRelay(t *testing.T, tp simnet.Transport) *Relay {
	t.Helper()
	members := []Member{
		{ID: "mid", Pos: simnet.Point{X: 10}},
		{ID: "leaf0", Pos: simnet.Point{X: 20}},
		{ID: "leaf1", Pos: simnet.Point{X: 30}},
	}
	tr, err := Build("quotes", testSource, members, Balanced, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Balanced fanout 2: src -> {mid, leaf0}? Ensure mid is the parent of
	// both leaves by building fanout 1 chain instead when needed.
	if len(tr.Children("mid")) != 2 {
		tr, err = Build("quotes", testSource,
			[]Member{{ID: "mid", Pos: simnet.Point{X: 10}}}, Balanced, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.AddMember(Member{ID: "leaf0", Pos: simnet.Point{X: 11}}, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.AddMember(Member{ID: "leaf1", Pos: simnet.Point{X: 9}}, 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.Children("mid")) != 2 {
		t.Fatalf("test tree: mid has children %v, want 2", tr.Children("mid"))
	}
	rel, err := NewRelay(tr, "mid", quotesSchema(), tp, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return rel
}

func quoteBatch(n int) stream.Batch {
	b := make(stream.Batch, 0, n)
	for i := 0; i < n; i++ {
		sym := "ibm"
		if i%2 == 1 {
			sym = "aapl"
		}
		b = append(b, stream.NewTuple("quotes", uint64(i), time.Unix(int64(i), 0).UTC(),
			stream.String(sym), stream.Float(float64(i%100))))
	}
	return b
}

// TestRelayPassThroughForwardsWireVerbatim proves the zero-copy claim:
// a child whose registration matched the whole batch receives the exact
// incoming payload slice, not a re-encoding.
func TestRelayPassThroughForwardsWireVerbatim(t *testing.T) {
	cap := newCaptureTransport()
	rel := midRelay(t, cap)
	// leaf0 registers everything; leaf1 registers a filter matching only
	// ibm quotes.
	all := stream.NewInterestSet("quotes")
	all.Add(stream.NewInterest("quotes"))
	allPayload, err := encodeInterestSet(all)
	if err != nil {
		t.Fatal(err)
	}
	rel.handle(simnet.Message{From: "leaf0", To: "mid", Kind: KindInterest, Payload: allPayload})
	ibm := stream.NewInterestSet("quotes")
	ibm.Add(stream.NewInterest("quotes").WithKeys("symbol", "ibm"))
	ibmPayload, err := encodeInterestSet(ibm)
	if err != nil {
		t.Fatal(err)
	}
	rel.handle(simnet.Message{From: "leaf1", To: "mid", Kind: KindInterest, Payload: ibmPayload})
	cap.take() // discard the upward registrations

	batch := quoteBatch(16)
	wire := stream.AppendBatch(nil, batch)
	rel.HandleTuples(wire)

	var toLeaf0, toLeaf1 *capturedMsg
	msgs := cap.take()
	for i := range msgs {
		switch msgs[i].to {
		case "leaf0":
			toLeaf0 = &msgs[i]
		case "leaf1":
			toLeaf1 = &msgs[i]
		}
	}
	if toLeaf0 == nil || toLeaf1 == nil {
		t.Fatal("both children should have received tuples")
	}
	if &toLeaf0.payload[0] != &wire[0] || len(toLeaf0.payload) != len(wire) {
		t.Fatal("match-all child should receive the incoming wire payload verbatim (zero-copy)")
	}
	dec, _, err := stream.DecodeBatch(toLeaf1.snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 8 {
		t.Fatalf("filtered child got %d tuples, want 8", len(dec))
	}
	for _, tu := range dec {
		if tu.Values[0].AsString() != "ibm" {
			t.Fatalf("filtered child got symbol %q", tu.Values[0].AsString())
		}
	}
	if got := rel.Relayed.Value(); got != 16+8 {
		t.Fatalf("Relayed = %d, want 24", got)
	}
	if got := rel.Suppressed.Value(); got != 8 {
		t.Fatalf("Suppressed = %d, want 8", got)
	}
}

// TestRelayUnregisteredChildPassThrough pins the safety default: a child
// with no registration receives the whole incoming payload verbatim.
func TestRelayUnregisteredChildPassThrough(t *testing.T) {
	cap := newCaptureTransport()
	rel := midRelay(t, cap)
	batch := quoteBatch(4)
	wire := stream.AppendBatch(nil, batch)
	rel.HandleTuples(wire)
	sent := cap.take()
	if len(sent) != 2 {
		t.Fatalf("sent %d messages, want 2", len(sent))
	}
	for _, m := range sent {
		if &m.payload[0] != &wire[0] {
			t.Fatalf("unregistered child %s should get the wire payload verbatim", m.to)
		}
	}
}

// TestRelayDecodeErrorCounted replaces the old silent drop: corrupt
// payloads are counted per kind and surfaced via DecodeErrorsByKind.
func TestRelayDecodeErrorCounted(t *testing.T) {
	rel := midRelay(t, newCaptureTransport())
	rel.HandleTuples([]byte{0xff, 0xff})
	rel.HandleTuples([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	rel.handle(simnet.Message{From: "leaf0", To: "mid", Kind: KindInterest, Payload: []byte("{")})
	if got := rel.DecodeErrors.Value(); got != 3 {
		t.Fatalf("DecodeErrors = %d, want 3", got)
	}
	byKind := rel.DecodeErrorsByKind()
	if byKind["tuples"] != 2 || byKind["interest"] != 1 {
		t.Fatalf("DecodeErrorsByKind = %v, want tuples:2 interest:1", byKind)
	}
	// Recovery clears the once-per-transition state without disturbing
	// the counts.
	rel.HandleTuples(stream.AppendBatch(nil, quoteBatch(1)))
	if byKind := rel.DecodeErrorsByKind(); byKind["tuples"] != 2 {
		t.Fatalf("counts must survive recovery, got %v", byKind)
	}
}

// TestRelayPassThroughZeroAllocs is the headline regression guard: a
// pure-relay hop (decode + match + pass-through fan-out) allocates
// nothing per batch in steady state.
func TestRelayPassThroughZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates; exact counts only hold without -race")
	}
	rel := midRelay(t, newNullTransport())
	all := stream.NewInterestSet("quotes")
	all.Add(stream.NewInterest("quotes"))
	payload, err := encodeInterestSet(all)
	if err != nil {
		t.Fatal(err)
	}
	rel.handle(simnet.Message{From: "leaf0", To: "mid", Kind: KindInterest, Payload: payload})
	rel.handle(simnet.Message{From: "leaf1", To: "mid", Kind: KindInterest, Payload: payload})
	wire := stream.AppendBatch(nil, quoteBatch(64))
	for i := 0; i < 10; i++ { // warmup: pools, arenas
		rel.HandleTuples(wire)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rel.HandleTuples(wire)
	})
	if allocs != 0 {
		t.Fatalf("pass-through relay path allocated %.2f times per batch, want 0", allocs)
	}
}

// TestRelayCompiledMatchZeroAllocsFiltered extends the guard to the
// filtered path with local delivery disabled: matching plus pooled
// re-encode must stay allocation-free.
func TestRelayFilteredPathSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates; exact counts only hold without -race")
	}
	rel := midRelay(t, newNullTransport())
	ibm := stream.NewInterestSet("quotes")
	ibm.Add(stream.NewInterest("quotes").WithKeys("symbol", "ibm"))
	payload, err := encodeInterestSet(ibm)
	if err != nil {
		t.Fatal(err)
	}
	rel.handle(simnet.Message{From: "leaf0", To: "mid", Kind: KindInterest, Payload: payload})
	rel.handle(simnet.Message{From: "leaf1", To: "mid", Kind: KindInterest, Payload: payload})
	wire := stream.AppendBatch(nil, quoteBatch(64))
	for i := 0; i < 10; i++ {
		rel.HandleTuples(wire)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rel.HandleTuples(wire)
	})
	if allocs != 0 {
		t.Fatalf("filtered relay path allocated %.2f times per batch, want 0", allocs)
	}
}

// TestRelayBatchDelivery checks the DeliverBatch contract: locally
// matched tuples arrive cloned (safe to retain) in one call per batch.
func TestRelayBatchDelivery(t *testing.T) {
	members := []Member{{ID: "e00", Pos: simnet.Point{X: 10}}}
	tr, err := Build("quotes", testSource, members, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got stream.Batch
	rel, err := NewRelayWith(tr, "e00", quotesSchema(), newNullTransport(), nil,
		RelayOptions{DeliverBatch: func(b stream.Batch) {
			mu.Lock()
			got = append(got, b...)
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Close()
	if err := rel.SetLocalInterest([]stream.Interest{
		stream.NewInterest("quotes").WithKeys("symbol", "ibm"),
	}); err != nil {
		t.Fatal(err)
	}
	batch := quoteBatch(10)
	rel.HandleTuples(stream.AppendBatch(nil, batch))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("delivered %d tuples, want 5", len(got))
	}
	for _, tu := range got {
		if tu.Values[0].AsString() != "ibm" {
			t.Fatalf("delivered symbol %q, want ibm", tu.Values[0].AsString())
		}
	}
	if rel.Delivered.Value() != 5 {
		t.Fatalf("Delivered = %d, want 5", rel.Delivered.Value())
	}
}
