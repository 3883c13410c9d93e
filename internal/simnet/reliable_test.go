package simnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// reliablePair wires two reliable endpoints over a fault plan.
type reliablePair struct {
	plan *FaultPlan
	a, b *ReliableEndpoint
	mu   sync.Mutex
	got  []Message
}

func newReliablePair(t *testing.T, seed int64, cfg ReliableConfig) *reliablePair {
	t.Helper()
	p := &reliablePair{plan: NewFaultPlan(NewSim(nil), seed)}
	t.Cleanup(func() { p.plan.Close() })
	var err error
	p.a, err = NewReliable(p.plan, "a", func(Message) {}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.b, err = NewReliable(p.plan, "b", func(m Message) {
		m.Payload = bytes.Clone(m.Payload) // lent for the call
		p.mu.Lock()
		p.got = append(p.got, m)
		p.mu.Unlock()
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *reliablePair) delivered() []Message {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Message(nil), p.got...)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestReliableDeliversThroughLoss(t *testing.T) {
	cfg := ReliableConfig{MaxAttempts: 20, BaseBackoff: 2 * time.Millisecond}
	p := newReliablePair(t, 11, cfg)
	// Lossy forward path only: with 20 attempts at 50% loss, a give-up is
	// a ~1e-6 event, so the test is effectively deterministic.
	p.plan.SetLinkFaults("a", "b", LinkFaults{Drop: 0.5})
	const n = 20
	for i := 0; i < n; i++ {
		if err := p.a.Send("b", "ctl", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return len(p.delivered()) >= n }, "all deliveries")
	got := p.delivered()
	if len(got) != n {
		t.Fatalf("delivered %d, want exactly %d (no duplicates)", len(got), n)
	}
	seen := map[byte]bool{}
	for _, m := range got {
		if m.Kind != "ctl" {
			t.Fatalf("kind = %q", m.Kind)
		}
		if seen[m.Payload[0]] {
			t.Fatalf("payload %d delivered twice", m.Payload[0])
		}
		seen[m.Payload[0]] = true
	}
	if p.a.Retries.Value() == 0 {
		t.Error("0.5 drop but no retries recorded")
	}
	if p.a.GiveUps.Value() != 0 {
		t.Errorf("gave up %d times under recoverable loss", p.a.GiveUps.Value())
	}
}

func TestReliableSuppressesDuplicates(t *testing.T) {
	cfg := ReliableConfig{MaxAttempts: 6, BaseBackoff: 2 * time.Millisecond}
	p := newReliablePair(t, 12, cfg)
	p.plan.SetDefaultFaults(LinkFaults{Duplicate: 1})
	for i := 0; i < 10; i++ {
		if err := p.a.Send("b", "ctl", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return len(p.delivered()) >= 10 }, "deliveries")
	// Let the duplicated envelopes land too.
	p.plan.Quiesce(time.Second)
	if got := len(p.delivered()); got != 10 {
		t.Fatalf("handler saw %d messages, want 10 (duplicates suppressed)", got)
	}
	if p.b.Suppressed.Value() == 0 {
		t.Error("no suppressed duplicates recorded")
	}
}

func TestReliableGiveUpFeedsCallback(t *testing.T) {
	var mu sync.Mutex
	var gaveUp []NodeID
	cfg := ReliableConfig{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		OnGiveUp: func(to NodeID, kind string) {
			mu.Lock()
			gaveUp = append(gaveUp, to)
			mu.Unlock()
		},
	}
	p := newReliablePair(t, 13, cfg)
	p.plan.Blackhole("b")
	if err := p.a.Send("b", "ctl", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gaveUp) == 1
	}, "give-up callback")
	if p.a.GiveUps.Value() != 1 {
		t.Fatalf("GiveUps = %d, want 1", p.a.GiveUps.Value())
	}
	if p.a.Pending() != 0 {
		t.Fatalf("pending = %d after give-up", p.a.Pending())
	}
	if len(p.delivered()) != 0 {
		t.Fatal("blackholed message delivered")
	}
}

func TestReliableInOrderSuppressesStale(t *testing.T) {
	cfg := ReliableConfig{InOrder: true, MaxAttempts: 2, BaseBackoff: time.Millisecond}
	p := newReliablePair(t, 14, cfg)
	// Craft envelopes out of order, as a retried old registration would
	// arrive after a newer one.
	newer := encodeReliable(1, 5, "ctl", []byte("new"))
	stale := encodeReliable(1, 3, "ctl", []byte("old"))
	if err := p.plan.Send("a", "b", KindReliable, newer); err != nil {
		t.Fatal(err)
	}
	p.plan.Quiesce(time.Second)
	if err := p.plan.Send("a", "b", KindReliable, stale); err != nil {
		t.Fatal(err)
	}
	p.plan.Quiesce(time.Second)
	got := p.delivered()
	if len(got) != 1 || string(got[0].Payload) != "new" {
		t.Fatalf("delivered %v, want only the newer registration", got)
	}
	if p.b.Suppressed.Value() != 1 {
		t.Fatalf("Suppressed = %d, want 1 (the stale envelope)", p.b.Suppressed.Value())
	}
}

func TestReliableAcksEvenWhenSuppressing(t *testing.T) {
	// A duplicate envelope must still be acked or the sender would retry
	// forever; watch for the ack on the wire.
	net := NewSim(nil)
	defer net.Close()
	var mu sync.Mutex
	var acks []uint64
	if err := net.Register("probe", func(m Message) {
		if m.Kind == KindReliableAck {
			mu.Lock()
			acks = append(acks, binary.LittleEndian.Uint64(m.Payload))
			mu.Unlock()
		}
	}); err != nil {
		t.Fatal(err)
	}
	end, err := NewReliable(net, "b", func(Message) {}, ReliableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer end.Close()
	env := encodeReliable(1, 9, "ctl", nil)
	for i := 0; i < 2; i++ { // original + duplicate
		if err := net.Send("probe", "b", KindReliable, env); err != nil {
			t.Fatal(err)
		}
	}
	net.Quiesce(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(acks) != 2 || acks[0] != 9 || acks[1] != 9 {
		t.Fatalf("acks = %v, want seq 9 acked twice", acks)
	}
}

func TestReliableEnvelopeRoundTrip(t *testing.T) {
	env := encodeReliable(7, 1<<40, "diss.interest", []byte("payload"))
	inc, seq, kind, body, err := decodeReliable(env)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 7 || seq != 1<<40 || kind != "diss.interest" || string(body) != "payload" {
		t.Fatalf("round trip: %d %d %q %q", inc, seq, kind, body)
	}
	if _, _, _, _, err := decodeReliable(env[:5]); err == nil {
		t.Error("truncated envelope accepted")
	}
}

// Pending returns the number of unacknowledged deliveries in flight.
func (e *ReliableEndpoint) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// TestReliableSendIsOnTheWireWhenItReturns: Send hands its first
// transmission to the transport before it returns, so Quiesce right
// after it waits for that delivery instead of reporting idle while the
// envelope is still on its way to the wire.
func TestReliableSendIsOnTheWireWhenItReturns(t *testing.T) {
	net := NewSim(nil)
	defer net.Close()
	var mu sync.Mutex
	var got []byte
	a, err := NewReliable(net, "a", func(Message) {}, ReliableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewReliable(net, "b", func(m Message) {
		mu.Lock()
		got = append(got, m.Payload[0])
		mu.Unlock()
	}, ReliableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 100; i++ {
		before := net.Traffic().LinkBytes("a", "b")
		if err := a.Send("b", "ctl", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if net.Traffic().LinkBytes("a", "b") == before {
			t.Fatalf("send %d: Send returned before its envelope was on the transport", i)
		}
		if !net.Quiesce(time.Second) {
			t.Fatal("quiesce")
		}
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n != i+1 {
			t.Fatalf("send %d: Quiesce returned with %d deliveries, want %d", i, n, i+1)
		}
	}
}

// TestReliableNewIncarnationResetsReceiver: an endpoint re-created under
// an ID its peer has heard from restarts at seq 1. Its newer incarnation
// must reset the peer's record of that ID, so the new messages are
// delivered, and an envelope the old incarnation still has on the wire
// must be acked and suppressed, in both receiver modes.
func TestReliableNewIncarnationResetsReceiver(t *testing.T) {
	for _, inOrder := range []bool{true, false} {
		t.Run(map[bool]string{true: "in-order", false: "unordered"}[inOrder], func(t *testing.T) {
			net := NewSim(nil)
			defer net.Close()
			cfg := ReliableConfig{InOrder: inOrder}
			var mu sync.Mutex
			var got []string
			b, err := NewReliable(net, "b", func(m Message) {
				mu.Lock()
				got = append(got, string(m.Payload))
				mu.Unlock()
			}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			old, err := NewReliable(net, "a", func(Message) {}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []string{"old1", "old2", "old3"} {
				if err := old.Send("b", "ctl", []byte(p)); err != nil {
					t.Fatal(err)
				}
			}
			net.Quiesce(time.Second)
			if err := old.Close(); err != nil {
				t.Fatal(err)
			}

			rejoined, err := NewReliable(net, "a", func(Message) {}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rejoined.Close()
			if rejoined.inc <= old.inc {
				t.Fatalf("incarnation %d drawn after %d", rejoined.inc, old.inc)
			}
			if err := rejoined.Send("b", "ctl", []byte("new1")); err != nil {
				t.Fatal(err)
			}
			net.Quiesce(time.Second)
			// The old incarnation's retry of a seq the new one has not
			// reached yet arrives late.
			if err := net.Send("a", "b", KindReliable, encodeReliable(old.inc, 4, "ctl", []byte("old4"))); err != nil {
				t.Fatal(err)
			}
			net.Quiesce(time.Second)
			if err := rejoined.Send("b", "ctl", []byte("new2")); err != nil {
				t.Fatal(err)
			}
			net.Quiesce(time.Second)

			mu.Lock()
			defer mu.Unlock()
			want := []string{"old1", "old2", "old3", "new1", "new2"}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
			if b.Suppressed.Value() != 1 {
				t.Fatalf("Suppressed = %d, want 1 (the old incarnation's late envelope)", b.Suppressed.Value())
			}
			if rejoined.Pending() != 0 {
				t.Fatalf("pending = %d: the new incarnation's sends were not acked", rejoined.Pending())
			}
		})
	}
}
