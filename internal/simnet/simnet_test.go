package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestPointDistance(t *testing.T) {
	if d := (Point{0, 0}).Distance(Point{3, 4}); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
	if d := (Point{1, 1}).Distance(Point{1, 1}); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

func TestCenterIndex(t *testing.T) {
	if CenterIndex(nil) != -1 {
		t.Error("empty center index")
	}
	pts := []Point{{0, 0}, {10, 0}, {5, 0}}
	if got := CenterIndex(pts); got != 2 {
		t.Errorf("center = %d, want 2 (the midpoint)", got)
	}
}

func TestRadius(t *testing.T) {
	pts := []Point{{0, 0}, {3, 4}}
	if r := Radius(Point{0, 0}, pts); r != 5 {
		t.Errorf("radius = %v", r)
	}
	if r := Radius(Point{0, 0}, nil); r != 0 {
		t.Errorf("empty radius = %v", r)
	}
}

// Property: CenterIndex minimizes max-distance among candidates.
func TestCenterIndexOptimalProperty(t *testing.T) {
	f := func(coords []uint8) bool {
		if len(coords) < 2 {
			return true
		}
		pts := make([]Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, Point{X: float64(coords[i]), Y: float64(coords[i+1])})
		}
		ci := CenterIndex(pts)
		best := Radius(pts[ci], pts)
		for _, p := range pts {
			if Radius(p, pts) < best-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSimNetDelivery(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	var mu sync.Mutex
	var got []Message
	if err := n.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(m Message) {
		m.Payload = bytes.Clone(m.Payload) // lent for the call
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", "test", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if !n.Quiesce(time.Second) {
		t.Fatal("quiesce timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	m := got[0]
	if m.From != "a" || m.To != "b" || m.Kind != "test" || string(m.Payload) != "hello" {
		t.Fatalf("message = %+v", m)
	}
}

func TestSimNetErrors(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	if err := n.Register("a", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if err := n.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("a", func(Message) {}); err == nil {
		t.Error("duplicate register accepted")
	}
	if err := n.Send("a", "missing", "k", nil); err == nil {
		t.Error("send to unknown accepted")
	}
	if err := n.Send("missing", "a", "k", nil); err == nil {
		t.Error("send from unknown accepted")
	}
	var unknown ErrUnknownNode
	err := n.Send("a", "missing", "k", nil)
	if ue, ok := err.(ErrUnknownNode); !ok || ue.ID != "missing" {
		t.Errorf("error = %#v, want ErrUnknownNode{missing}", err)
	}
	_ = unknown
	if err := n.Deregister("missing"); err == nil {
		t.Error("deregister unknown accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSim accepted a latency model")
			}
		}()
		NewSim(func(_, _ Point) time.Duration { return time.Millisecond })
	}()
}

func TestSimNetTrafficAccounting(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	n.Register("src", func(Message) {})
	n.Register("dst", func(Message) {})
	payload := []byte("0123456789")
	if err := n.Send("src", "dst", "tuples", payload); err != nil {
		t.Fatal(err)
	}
	want := int64(Message{From: "src", To: "dst", Kind: "tuples", Payload: payload}.Size())
	tr := n.Traffic()
	if tr.TotalBytes() != want {
		t.Errorf("total = %d, want %d", tr.TotalBytes(), want)
	}
	if tr.TotalMessages() != 1 {
		t.Errorf("messages = %d", tr.TotalMessages())
	}
	if tr.EgressBytes("src") != want {
		t.Errorf("egress = %d", tr.EgressBytes("src"))
	}
	if tr.EgressBytes("dst") != 0 {
		t.Errorf("receiver egress = %d", tr.EgressBytes("dst"))
	}
	if tr.LinkBytes("src", "dst") != want {
		t.Errorf("link = %d", tr.LinkBytes("src", "dst"))
	}
	if tr.LinkBytes("dst", "src") != 0 {
		t.Errorf("reverse link = %d", tr.LinkBytes("dst", "src"))
	}
	id, b := tr.MaxEgress()
	if id != "src" || b != want {
		t.Errorf("max egress = %s/%d", id, b)
	}
	tr.Reset()
	if tr.TotalBytes() != 0 || tr.EgressBytes("src") != 0 {
		t.Error("reset incomplete")
	}
	if id, b := tr.MaxEgress(); id != "" || b != 0 {
		t.Errorf("empty max egress = %q/%d", id, b)
	}
}

func TestSimNetDeregisterStopsDelivery(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {})
	if err := n.Deregister("b"); err != nil {
		t.Fatal(err)
	}
	if err := n.Send("a", "b", "k", nil); err == nil {
		t.Error("send to deregistered node accepted")
	}
	if n.Nodes() != 1 {
		t.Errorf("nodes = %d", n.Nodes())
	}
}

func TestSimNetCloseIdempotent(t *testing.T) {
	n := NewSim(nil)
	n.Register("a", func(Message) {})
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(Message) {}); err == nil {
		t.Error("register after close accepted")
	}
	if err := n.Send("a", "a", "k", nil); err == nil {
		t.Error("send after close accepted")
	}
}

// TestSimNetFIFOPerSender: messages from one sender reach a receiver in
// the order they were sent, while other senders race it on the same
// receiver.
func TestSimNetFIFOPerSender(t *testing.T) {
	const senders, perSender = 8, 1000
	n := NewSim(nil)
	defer n.Close()
	var mu sync.Mutex
	next := make(map[NodeID]uint32)
	if err := n.Register("dst", func(m Message) {
		seq := binary.BigEndian.Uint32(m.Payload)
		mu.Lock()
		defer mu.Unlock()
		if seq != next[m.From] {
			t.Errorf("%s: got #%d, want #%d", m.From, seq, next[m.From])
		}
		next[m.From] = seq + 1
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		id := NodeID(fmt.Sprintf("s%d", i))
		if err := n.Register(id, func(Message) {}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [4]byte
			for seq := uint32(0); seq < perSender; seq++ {
				binary.BigEndian.PutUint32(buf[:], seq)
				if err := n.Send(id, "dst", "k", buf[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	mu.Lock()
	defer mu.Unlock()
	for id, got := range next {
		if got != perSender {
			t.Errorf("%s: delivered %d, want %d", id, got, perSender)
		}
	}
	if len(next) != senders {
		t.Errorf("heard from %d senders, want %d", len(next), senders)
	}
}

// TestSimNetSenderBlocksOnQueuedBytes: once a receiver holds
// linkQueueBytes of undelivered messages the next send waits, and it
// resumes when the handler drains them.
func TestSimNetSenderBlocksOnQueuedBytes(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the blocked handler
	var delivered atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {
		<-gate
		delivered.Add(1)
	})
	// Four quarter-bound payloads plus their headers reach the bound.
	payload := make([]byte, linkQueueBytes/4)
	for i := 0; i < 4; i++ {
		if err := n.Send("a", "b", "k", payload); err != nil {
			t.Fatal(err)
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- n.Send("a", "b", "k", payload) }()
	select {
	case err := <-sent:
		t.Fatalf("send past the byte bound returned (%v) before the receiver drained", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send never resumed after the handler drained")
	}
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	if got := delivered.Load(); got != 5 {
		t.Errorf("delivered %d, want 5", got)
	}
}

// TestSimNetDeregisterDeliversQueued: what was queued for a node before
// it deregistered is delivered before Deregister returns.
func TestSimNetDeregisterDeliversQueued(t *testing.T) {
	const queued = 100
	n := NewSim(nil)
	defer n.Close()
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, which waits for the blocked handler
	entered := make(chan struct{}, queued)
	var delivered atomic.Int64
	n.Register("a", func(Message) {})
	n.Register("b", func(Message) {
		entered <- struct{}{}
		<-gate
		delivered.Add(1)
	})
	n.mu.RLock()
	node := n.nodes["b"]
	n.mu.RUnlock()
	// The runner holds the first message in its handler while the rest
	// queue up behind it.
	for i := 0; i < queued; i++ {
		if err := n.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
	}
	done := make(chan error, 1)
	go func() { done <- n.Deregister("b") }()
	for closed := false; !closed; time.Sleep(time.Millisecond) {
		node.mu.Lock()
		closed = node.closed
		node.mu.Unlock()
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := delivered.Load(); got != queued {
		t.Errorf("delivered %d of the %d queued before Deregister", got, queued)
	}
}

func TestMessageSizeMatchesFrame(t *testing.T) {
	msg := Message{From: "alpha", To: "b", Kind: "tuples", Payload: []byte("xyz")}
	frame := appendFrame(nil, msg)
	if msg.Size() != len(frame) {
		t.Errorf("Size() = %d, frame = %d", msg.Size(), len(frame))
	}
}

// Property: frame encode/decode round-trips.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(from, to, kind string, payload []byte) bool {
		if len(from) > 500 || len(to) > 500 || len(kind) > 500 || len(payload) > 5000 {
			return true
		}
		msg := Message{From: NodeID(from), To: NodeID(to), Kind: kind, Payload: payload}
		frame := appendFrame(nil, msg)
		got, err := newFrameReader(byteReader(frame)).next()
		if err != nil {
			return false
		}
		if got.From != msg.From || got.To != msg.To || got.Kind != msg.Kind {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type byteReaderT struct {
	buf []byte
	off int
}

func byteReader(b []byte) *byteReaderT { return &byteReaderT{buf: b} }

func (r *byteReaderT) Read(p []byte) (int, error) {
	if r.off >= len(r.buf) {
		return 0, errEOF
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	return n, nil
}

var errEOF = &eofError{}

type eofError struct{}

func (*eofError) Error() string { return "EOF" }

func TestTCPNetEndToEnd(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	var mu sync.Mutex
	var got []Message
	if err := n.Register("server", func(m Message) {
		m.Payload = bytes.Clone(m.Payload) // lent for the call
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("client", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if addr, ok := n.Address("server"); !ok || addr == "" {
		t.Fatal("server has no address")
	}
	if _, ok := n.Address("nope"); ok {
		t.Error("address of unknown node")
	}
	for i := 0; i < 10; i++ {
		if err := n.Send("client", "server", "tuples", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		c := len(got)
		mu.Unlock()
		if c == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of 10", c)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[0].From != "client" || got[0].Kind != "tuples" {
		t.Fatalf("message = %+v", got[0])
	}
	if n.Traffic().TotalMessages() != 10 {
		t.Errorf("traffic messages = %d", n.Traffic().TotalMessages())
	}
}

func TestTCPNetErrors(t *testing.T) {
	n := NewTCP()
	defer n.Close()
	if err := n.Register("a", nil); err == nil {
		t.Error("nil handler accepted")
	}
	n.Register("a", func(Message) {})
	if err := n.Register("a", func(Message) {}); err == nil {
		t.Error("duplicate accepted")
	}
	if err := n.Send("a", "missing", "k", nil); err == nil {
		t.Error("send to unknown accepted")
	}
	if err := n.Send("missing", "a", "k", nil); err == nil {
		t.Error("send from unknown accepted")
	}
	if err := n.Deregister("missing"); err == nil {
		t.Error("deregister unknown accepted")
	}
	if err := n.Deregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(Message) {}); err == nil {
		t.Error("register after close accepted")
	}
}

// Nodes returns the number of registered endpoints.
func (s *SimNet) Nodes() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

// Address returns the node's listen address.
func (t *TCPNet) Address(id NodeID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[id]
	if !ok {
		return "", false
	}
	return n.addr, true
}
