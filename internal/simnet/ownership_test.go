package simnet

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// ownershipRig registers a sender "a" and a receiver "b" on tr. b's
// first delivery parks its handler until release is called, so whatever
// is sent after it waits in b's queue while the test writes the
// sender's buffer. b is lent each payload for the call, so it keeps a
// copy.
type ownershipRig struct {
	mu      sync.Mutex
	got     []Message
	gate    chan struct{}
	release func()
}

func newOwnershipRig(t *testing.T, tr Transport) *ownershipRig {
	t.Helper()
	r := &ownershipRig{gate: make(chan struct{})}
	var once sync.Once
	r.release = func() { once.Do(func() { close(r.gate) }) }
	t.Cleanup(r.release)
	if err := tr.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Register("b", func(m Message) {
		if m.Kind == "gate" {
			<-r.gate
			return
		}
		m.Payload = bytes.Clone(m.Payload)
		r.mu.Lock()
		r.got = append(r.got, m)
		r.mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send("a", "b", "gate", nil); err != nil {
		t.Fatal(err)
	}
	return r
}

// delivered releases the gate, settles tr and returns what b received.
func (r *ownershipRig) delivered(t *testing.T, tr Transport) []Message {
	t.Helper()
	r.release()
	if !tr.(interface{ Quiesce(time.Duration) bool }).Quiesce(5 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Message(nil), r.got...)
}

// TestSimNetSendCopiesPayload: Send is only lent the payload, so the
// caller may overwrite its buffer the moment Send returns and the
// receiver still reads what was sent.
func TestSimNetSendCopiesPayload(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	r := newOwnershipRig(t, n)
	payload := []byte("lent for the call")
	want := bytes.Clone(payload)
	if err := n.Send("a", "b", "k", payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'x'
	}
	got := r.delivered(t, n)
	if len(got) != 1 || !bytes.Equal(got[0].Payload, want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// TestSimNetSendUnderFaultsCopiesPayload: a FaultPlan that defers a lent
// payload (duplicate and reorder) copies it before Send returns, so both
// deliveries read what was sent after the caller overwrote its buffer.
func TestSimNetSendUnderFaultsCopiesPayload(t *testing.T) {
	plan := NewFaultPlan(NewSim(nil), 1)
	defer plan.Close()
	r := newOwnershipRig(t, plan)
	plan.SetDefaultFaults(LinkFaults{Duplicate: 1, Reorder: 1, ReorderDelay: time.Millisecond})
	payload := []byte("lent for the call")
	want := bytes.Clone(payload)
	if err := plan.Send("a", "b", "k", payload); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] = 'x'
	}
	got := r.delivered(t, plan)
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (duplicated)", len(got))
	}
	for i, m := range got {
		if !bytes.Equal(m.Payload, want) {
			t.Fatalf("delivery %d: %q, want %q", i, m.Payload, want)
		}
	}
}

// TestSimNetReceivedPayloadIsLent: a delivered payload is lent to its
// handler for the call, from storage the node reuses. The node fills one
// arena while its handlers read the other, so once both exist every
// delivery reads from the backing array the delivery two batches before
// it read, and carries what was sent.
func TestSimNetReceivedPayloadIsLent(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	var mu sync.Mutex
	var arrays []*byte
	var got [][]byte
	if err := n.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	if err := n.Register("b", func(m Message) {
		mu.Lock()
		arrays = append(arrays, &m.Payload[0])
		got = append(got, bytes.Clone(m.Payload))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	const sends = 8
	for i := 0; i < sends; i++ {
		// One message per batch: each is at the start of its arena.
		if err := n.Send("a", "b", "k", []byte{byte(i), 'x', 'y'}); err != nil {
			t.Fatal(err)
		}
		if !n.Quiesce(5 * time.Second) {
			t.Fatal("quiesce timeout")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != sends {
		t.Fatalf("deliveries = %d, want %d", len(got), sends)
	}
	for i, p := range got {
		if !bytes.Equal(p, []byte{byte(i), 'x', 'y'}) {
			t.Fatalf("delivery %d read %q", i, p)
		}
	}
	if arrays[0] == arrays[1] {
		t.Fatal("the first two batches shared one arena: a sender wrote the arena a handler was reading")
	}
	for i := 2; i < sends; i++ {
		if arrays[i] != arrays[i-2] {
			t.Fatalf("delivery %d read a new backing array: a warm node allocated its arena again", i)
		}
	}
}

// TestIdleReceiverKeepsBoundedBuffers: after a 4 MiB burst, an idle
// receiver keeps no payload buffer above keptPayloadBytes: neither a
// SimNet node's arenas nor a TCP connection's reader.
func TestIdleReceiverKeepsBoundedBuffers(t *testing.T) {
	const burst, msg = linkQueueBytes, 64 << 10
	t.Run("simnet", func(t *testing.T) {
		n := NewSim(nil)
		defer n.Close()
		r := newOwnershipRig(t, n) // the gate holds the burst in one arena
		payload := make([]byte, msg)
		for sent := 0; sent < burst; sent += msg {
			if err := n.Send("a", "b", "k", payload); err != nil {
				t.Fatal(err)
			}
		}
		if got := r.delivered(t, n); len(got) != burst/msg {
			t.Fatalf("deliveries = %d, want %d", len(got), burst/msg)
		}
		n.mu.RLock()
		node := n.nodes["b"]
		n.mu.RUnlock()
		node.mu.Lock()
		defer node.mu.Unlock()
		if a, s := cap(node.arena), cap(node.spareArena); a > keptPayloadBytes || s > keptPayloadBytes {
			t.Fatalf("idle node keeps arenas of %d and %d bytes, want each ≤ %d", a, s, keptPayloadBytes)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		frame := appendFrame(nil, Message{From: "a", To: "b", Kind: "k", Payload: make([]byte, burst)})
		fr := newFrameReader(byteReader(frame))
		m, err := fr.next()
		if err != nil || len(m.Payload) != burst {
			t.Fatalf("read %d bytes (%v), want %d", len(m.Payload), err, burst)
		}
		if _, err := fr.next(); err == nil {
			t.Fatal("read a second frame from one")
		}
		if c := cap(fr.payload); c > keptPayloadBytes {
			t.Fatalf("idle reader keeps a %d-byte payload buffer, want ≤ %d", c, keptPayloadBytes)
		}
	})
}
