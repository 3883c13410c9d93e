package dissemination

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sspd/internal/obslog"
	"sspd/internal/simnet"
	"sspd/internal/stream"
)

// countingTransport counts every tuple send once it has returned, and
// keeps the seqs each destination received in arrival order. A send
// from an endpoint that is not registered fails, as SimNet fails a
// closed sender's. Each send pauses before it counts itself, so a send
// still under way when Publish returns would be missed by the count.
type countingTransport struct {
	nullTransport
	pause time.Duration

	mu     sync.Mutex
	live   map[simnet.NodeID]bool
	landed int64 // tuple sends that returned nil
	failed int64 // tuple sends that returned an error
	tuples int64 // tuples in the landed sends
	seqs   map[simnet.NodeID][]uint64
}

func newCountingTransport(pause time.Duration) *countingTransport {
	return &countingTransport{nullTransport: *newNullTransport(), pause: pause,
		live: map[simnet.NodeID]bool{}, seqs: map[simnet.NodeID][]uint64{}}
}

func (c *countingTransport) Register(id simnet.NodeID, h simnet.Handler) error {
	c.mu.Lock()
	c.live[id] = true
	c.mu.Unlock()
	return nil
}

func (c *countingTransport) Deregister(id simnet.NodeID) error {
	c.mu.Lock()
	delete(c.live, id)
	c.mu.Unlock()
	return nil
}

func (c *countingTransport) Send(from, to simnet.NodeID, kind string, payload []byte) error {
	if kind != KindTuples {
		return nil
	}
	c.mu.Lock()
	live := c.live[from]
	if !live {
		c.failed++
	}
	c.mu.Unlock()
	if !live {
		return simnet.ErrUnknownNode{ID: from}
	}
	dec, _, err := stream.DecodeBatch(payload) // the payload is only valid until Send returns
	if err != nil {
		return err
	}
	if c.pause > 0 {
		time.Sleep(c.pause)
	}
	c.mu.Lock()
	c.landed++
	c.tuples += int64(len(dec))
	c.seqs[to] = append(c.seqs[to], seqs(dec)...)
	c.mu.Unlock()
	return nil
}

// counts returns landed and failed sends and the tuples that landed.
func (c *countingTransport) counts() (landed, failed, tuples int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.landed, c.failed, c.tuples
}

// starSource builds a SourceDirect tree of n children under testSource
// and the source relay publishing into it.
func starSource(t *testing.T, n int, tp simnet.Transport) (*Tree, *Relay) {
	t.Helper()
	members := make([]Member, n)
	for i := range members {
		members[i] = Member{ID: hubChild(i), Pos: simnet.Point{X: float64(i + 1)}}
	}
	tr, err := Build("quotes", testSource, members, SourceDirect, 0)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := NewRelay(tr, testSource.ID, quotesSchema(), tp, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return tr, rel
}

// registerLinkShapes gives a four-child star every kind of link: c00
// takes everything (the shared full payload), c01 ibm only (a re-encoded
// sub-batch), c02 nothing registered (forward all) and c03 a symbol no
// quote carries (suppressed, no send). It returns the registrations,
// nil for c02.
func registerLinkShapes(t *testing.T, rel *Relay) map[simnet.NodeID]*stream.InterestSet {
	t.Helper()
	q := stream.NewInterest("quotes")
	regs := map[simnet.NodeID]*stream.InterestSet{}
	for c, in := range map[simnet.NodeID]stream.Interest{
		hubChild(0): q,
		hubChild(1): q.WithKeys("symbol", "ibm"),
		hubChild(3): q.WithKeys("symbol", "none"),
	} {
		set, payload := registration(t, in)
		rel.handle(simnet.Message{From: c, To: rel.ID(), Kind: KindInterest, Payload: payload})
		regs[c] = set
	}
	return regs
}

// TestRelayPublishReturnsAfterEverySend pins the inline link contract:
// when Publish returns, the Send of every child the batch matched has
// returned — pass-through, partial and unregistered children alike —
// and a suppressed child was never sent to. Quiescence barriers and the
// release of the pooled encode buffers both rest on this.
func TestRelayPublishReturnsAfterEverySend(t *testing.T) {
	tp := newCountingTransport(200 * time.Microsecond)
	_, rel := starSource(t, 4, tp)
	registerLinkShapes(t, rel)
	const n = 16 // quoteBatch alternates ibm and aapl
	for k := 0; k < 20; k++ {
		landed0, _, tuples0 := tp.counts()
		relayed0 := rel.Relayed.Value()
		if err := rel.Publish(quoteBatch(n)); err != nil {
			t.Fatal(err)
		}
		landed, failed, tuples := tp.counts()
		if landed-landed0 != 3 || failed != 0 {
			t.Fatalf("batch %d: %d sends had returned when Publish did (%d failed), want 3 (c00, c01, c02)", k, landed-landed0, failed)
		}
		if want := int64(n + n/2 + n); tuples-tuples0 != want || rel.Relayed.Value()-relayed0 != want {
			t.Fatalf("batch %d: %d tuples landed, Relayed moved by %d, want %d", k, tuples-tuples0, rel.Relayed.Value()-relayed0, want)
		}
	}
	if got := tp.seqs[hubChild(3)]; len(got) != 0 {
		t.Fatalf("suppressed child received %v", got)
	}
}

// TestRelayLinkKeepsPublishOrder: batches from one publisher reach every
// child in the order they were published, whatever shape its link has.
func TestRelayLinkKeepsPublishOrder(t *testing.T) {
	tp := newCountingTransport(0)
	_, rel := starSource(t, 4, tp)
	regs := registerLinkShapes(t, rel)
	sc := quotesSchema()
	want := map[simnet.NodeID][]uint64{}
	for k := uint64(0); k < 100; k++ {
		batch := mixedBatch(k*32, 32)
		for i := 0; i < 3; i++ {
			c := hubChild(i)
			want[c] = append(want[c], matching(regs[c], sc, batch)...)
		}
		if err := rel.Publish(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		c := hubChild(i)
		if got := tp.seqs[c]; fmt.Sprint(got) != fmt.Sprint(want[c]) {
			t.Fatalf("%s received %d seqs out of publish order or incomplete:\ngot  %v\nwant %v", c, len(got), got, want[c])
		}
	}
}

// TestRelayPublishersRaceDropRewireClose: four publishers share one
// source relay while a child's registration is dropped and restored, a
// child is rewired away and back, and the relay closes (run under
// -race). Nothing panics, and every send the relay made either landed —
// and is in Relayed and the link meter — or failed and is in SendErrors.
func TestRelayPublishersRaceDropRewireClose(t *testing.T) {
	tp := newCountingTransport(0)
	tr, rel := starSource(t, 6, tp)
	q := stream.NewInterest("quotes")
	_, ibm := registration(t, q.WithKeys("symbol", "ibm", "goog"))
	for i := 0; i < 4; i++ {
		rel.handle(simnet.Message{From: hubChild(i), To: rel.ID(), Kind: KindInterest, Payload: ibm})
	}

	var published, started sync.WaitGroup
	closed := make(chan struct{})
	for p := 0; p < 4; p++ {
		published.Add(1)
		started.Add(1)
		go func(p int) {
			defer published.Done()
			for k := uint64(0); k < 400; k++ {
				if k == 300 {
					<-closed // the last quarter publishes into a closed relay
				}
				err := rel.Publish(mixedBatch((4*k+uint64(p))*16, 16))
				if k == 0 {
					started.Done()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for round := 0; round < 200; round++ {
		rel.DropChild(hubChild(round % 4))
		rel.handle(simnet.Message{From: hubChild(round % 4), To: rel.ID(), Kind: KindInterest, Payload: ibm})
		from, to := testSource.ID, hubChild(4)
		if round%2 == 1 {
			from, to = to, from
		}
		if err := tr.ApplyRewire(Rewire{Child: hubChild(5), OldParent: from, NewParent: to}, 16); err != nil {
			t.Fatal(err)
		}
	}
	started.Wait() // every publisher has sent into the open relay once
	if err := rel.Close(); err != nil {
		t.Fatal(err)
	}
	close(closed)
	published.Wait()

	landed, failed, tuples := tp.counts()
	if landed == 0 || failed == 0 {
		t.Fatalf("degenerate run: %d sends landed, %d failed (the relay closed mid-run, both must be > 0)", landed, failed)
	}
	if got := rel.LinkBytes.Messages(); got != landed {
		t.Errorf("link meter counted %d messages, %d landed", got, landed)
	}
	if got := rel.Relayed.Value(); got != tuples {
		t.Errorf("Relayed = %d, %d tuples landed", got, tuples)
	}
	if got := rel.SendErrors.Value(); got != failed {
		t.Errorf("SendErrors = %d, %d sends failed", got, failed)
	}
	var byLink int64
	for _, n := range rel.SendErrorsByLink() {
		byLink += n
	}
	if byLink != failed {
		t.Errorf("per-link errors sum to %d, %d sends failed", byLink, failed)
	}
}

// TestRelayFailedSendCountsNothingRelayed: a batch whose send fails is
// not relayed. Sends to a deregistered child leave Relayed and the link
// meter where they were, count one SendError per batch, and journal one
// link.down for the whole outage.
func TestRelayFailedSendCountsNothingRelayed(t *testing.T) {
	net := simnet.NewSim(nil)
	t.Cleanup(func() { net.Close() })
	tr, err := Build("quotes", testSource, []Member{{ID: "e00", Pos: simnet.Point{X: 10}}}, Balanced, 1)
	if err != nil {
		t.Fatal(err)
	}
	log := obslog.New(obslog.NewJournal(64), nil)
	src, err := NewRelayWith(tr, testSource.ID, quotesSchema(), net, nil, RelayOptions{Log: log})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	e00, err := NewRelay(tr, "e00", quotesSchema(), net, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Publish(stream.Batch{quote(0, "ibm", 10)}); err != nil {
		t.Fatal(err)
	}
	relayed, bytes, msgs := src.Relayed.Value(), src.LinkBytes.Bytes(), src.LinkBytes.Messages()
	if relayed != 1 || msgs != 1 {
		t.Fatalf("healthy link: Relayed %d, link messages %d, want 1 and 1", relayed, msgs)
	}
	if err := e00.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := src.Publish(stream.Batch{quote(uint64(i), "ibm", 10), quote(uint64(i), "msft", 20)}); err != nil {
			t.Fatal(err)
		}
		if got := src.SendErrors.Value(); got != int64(i) {
			t.Fatalf("after %d failed batches SendErrors = %d", i, got)
		}
	}
	if src.Relayed.Value() != relayed || src.LinkBytes.Bytes() != bytes || src.LinkBytes.Messages() != msgs {
		t.Fatalf("failed sends moved the relayed counters: Relayed %d→%d, link bytes %d→%d, messages %d→%d",
			relayed, src.Relayed.Value(), bytes, src.LinkBytes.Bytes(), msgs, src.LinkBytes.Messages())
	}
	if got := src.SendErrorsByLink()["e00"]; got != 3 {
		t.Fatalf("errors on e00's link = %d, want 3", got)
	}
	if downs := log.Journal().Since(0, "link.down"); len(downs) != 1 {
		t.Fatalf("journaled %d link.down events, want 1: %v", len(downs), downs)
	}
}

// TestRelayRefreshAfterCloseIsSilent: the federation's refresh tick may
// pick a relay up just before its entity leaves. Once Close has run,
// Refresh sends nothing and counts no error.
func TestRelayRefreshAfterCloseIsSilent(t *testing.T) {
	net, _, r0, _, _, _ := buildChain(t)
	if err := r0.Close(); err != nil {
		t.Fatal(err)
	}
	before := net.Traffic().TotalMessages()
	if err := r0.Refresh(); err != nil {
		t.Fatalf("Refresh after Close: %v", err)
	}
	if got := net.Traffic().TotalMessages(); got != before || r0.SendErrors.Value() != 0 {
		t.Fatalf("Refresh after Close sent %d messages and counted %d send errors, want none", got-before, r0.SendErrors.Value())
	}
}
