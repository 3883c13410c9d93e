package simnet

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestTCPNetWriteDeadlineUnwedgesSender is the regression test for the
// unbounded-blocking bug: a peer that accepts connections but never
// reads will eventually exert TCP backpressure, and without a write
// deadline the sender's cached connection blocks forever inside Send.
// With deadlines, every Send completes in bounded time and the stale
// connection is evicted from the cache.
func TestTCPNetWriteDeadlineUnwedgesSender(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	tn.SetTimeouts(time.Second, 100*time.Millisecond)
	if err := tn.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}

	// An unresponsive listener: accepts and then ignores every
	// connection, so written frames pile up in kernel buffers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var heldMu sync.Mutex
	var held []net.Conn
	defer func() {
		heldMu.Lock()
		defer heldMu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			heldMu.Lock()
			held = append(held, c) // never read
			heldMu.Unlock()
		}
	}()
	tn.mu.Lock()
	tn.nodes["dead"] = &tcpNode{id: "dead", handler: func(Message) {}, listener: ln, addr: ln.Addr().String()}
	tn.mu.Unlock()

	// Push well past any plausible socket buffering. Each Send must
	// return within ~2 write deadlines (original + one retry on a fresh
	// connection); the watchdog catches a wedged sender.
	payload := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 32; i++ {
			_ = tn.Send("a", "dead", "k", payload) // errors are fine; blocking is not
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Send wedged on an unresponsive peer (write deadline not applied)")
	}
	if tn.Evictions() == 0 {
		t.Fatal("no stale connection was evicted")
	}
}

// TestTCPNetSendAllocatesNothingWarm: on a warm connection Send frames
// the message in a pooled buffer and dials with the address formatted at
// Register, so it allocates nothing per message. The peer is a plain
// socket that discards what it reads, so only the sender's allocations
// are counted.
func TestTCPNetSendAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled buffers; exact counts only hold without -race")
	}
	tn := NewTCP()
	defer tn.Close()
	if err := tn.Register("a", func(Message) {}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()
	tn.mu.Lock()
	tn.nodes["sink"] = &tcpNode{id: "sink", handler: func(Message) {}, listener: ln, addr: ln.Addr().String()}
	tn.mu.Unlock()

	payload := make([]byte, 512)
	send := func() {
		if err := tn.Send("a", "sink", "diss.tuples", payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ { // dial, and fill the pool
		send()
	}
	if allocs := testing.AllocsPerRun(500, send); allocs != 0 {
		t.Fatalf("Send on a warm connection allocated %.2f times per message, want 0", allocs)
	}
}

func TestTCPNetDialTimeoutConfigured(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	if tn.dialTimeout != 5*time.Second || tn.writeTimeout != 5*time.Second {
		t.Fatalf("defaults = %v/%v, want 5s/5s", tn.dialTimeout, tn.writeTimeout)
	}
	tn.SetTimeouts(time.Second, 2*time.Second)
	if tn.dialTimeout != time.Second || tn.writeTimeout != 2*time.Second {
		t.Fatal("SetTimeouts did not apply")
	}
	tn.SetTimeouts(0, 0) // zero keeps current values
	if tn.dialTimeout != time.Second || tn.writeTimeout != 2*time.Second {
		t.Fatal("zero timeout overwrote configured values")
	}
}

// SetTimeouts adjusts the dial and per-write deadlines (zero keeps the
// current value). Call before heavy use; it is safe at any time.
func (t *TCPNet) SetTimeouts(dial, write time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if dial > 0 {
		t.dialTimeout = dial
	}
	if write > 0 {
		t.writeTimeout = write
	}
}

// Evictions reports how many cached connections were dropped after a
// failed or timed-out write.
func (t *TCPNet) Evictions() int64 { return t.evictions.Load() }
