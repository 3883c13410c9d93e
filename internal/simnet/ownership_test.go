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
// sender's buffer.
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

// TestSimNetHandKeepsPayload: a handed payload reaches the handler in the
// very backing array the sender handed over — no copy on the way.
func TestSimNetHandKeepsPayload(t *testing.T) {
	n := NewSim(nil)
	defer n.Close()
	r := newOwnershipRig(t, n)
	payload := []byte("handed over")
	if err := Hand(n, "a", "b", "k", payload); err != nil {
		t.Fatal(err)
	}
	got := r.delivered(t, n)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(got))
	}
	if &got[0].Payload[0] != &payload[0] || len(got[0].Payload) != len(payload) {
		t.Fatal("a handed payload arrived in a different backing array")
	}
	gate := Message{From: "a", To: "b", Kind: "gate"}
	if tb, want := n.Traffic().TotalBytes(), int64(gate.Size()+got[0].Size()); tb != want {
		t.Fatalf("traffic = %d bytes, want %d: a handed message is metered like a sent one", tb, want)
	}
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

// TestSimNetHandUnderFaultsSharesPayload: a FaultPlan that duplicates and
// reorders a handed payload delivers it twice, both times in the
// sender's backing array, byte-identical.
func TestSimNetHandUnderFaultsSharesPayload(t *testing.T) {
	plan := NewFaultPlan(NewSim(nil), 1)
	defer plan.Close()
	r := newOwnershipRig(t, plan)
	plan.SetDefaultFaults(LinkFaults{Duplicate: 1, Reorder: 1, ReorderDelay: time.Millisecond})
	payload := []byte("handed over twice")
	want := bytes.Clone(payload)
	if err := Hand(plan, "a", "b", "k", payload); err != nil {
		t.Fatal(err)
	}
	got := r.delivered(t, plan)
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (duplicated)", len(got))
	}
	for i, m := range got {
		if &m.Payload[0] != &payload[0] || !bytes.Equal(m.Payload, want) {
			t.Fatalf("delivery %d: %q, want %q in the handed backing array", i, m.Payload, want)
		}
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
