package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPNetWriteDeadlineUnwedgesSender is the regression test for the
// unbounded-blocking bug: a peer that accepts connections but never
// reads will eventually exert TCP backpressure, and without a write
// deadline the sender's cached connection blocks forever inside Send.
// With deadlines, every Send completes in bounded time, the stale link
// is evicted from the cache, and the frames it held are counted as
// discarded.
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
	if tn.Discarded() == 0 {
		t.Fatal("a link failed at its write deadline but counted no discarded frame")
	}
}

// TestTCPNetSendAllocatesNothingWarm: on a warm link Send frames the
// message into the link's queue, which the writer hands back as its
// spare, and dials with the address formatted at Register, so it
// allocates nothing per message. The peer is a plain
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

// TestTCPNetReadAllocatesNothingWarm: a connection's reader keeps the
// last frame's From, To and Kind and reads every payload into one
// buffer, lent to the handler until the next frame, so a warm frame from
// the same sender allocates nothing.
func TestTCPNetReadAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state; exact counts only hold without -race")
	}
	want := Message{From: "src", To: "dst", Kind: "diss.tuples", Payload: make([]byte, 512)}
	fr := newFrameReader(&repeatReader{frame: appendFrame(nil, want)})
	read := func() {
		got, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind || len(got.Payload) != len(want.Payload) {
			t.Fatalf("read %+v", got)
		}
	}
	read() // the first frame allocates its header strings and the payload buffer
	if allocs := testing.AllocsPerRun(500, read); allocs != 0 {
		t.Fatalf("reading a warm frame allocated %.2f times, want 0", allocs)
	}
}

// repeatReader yields frame over and over.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.frame[r.off:])
		n += c
		r.off = (r.off + c) % len(r.frame)
	}
	return n, nil
}

// gatedConn holds every Write until open is closed, and closes entered
// on the first one: a socket whose peer reads only once a gate opens. If
// fail is set when the gate opens, the held write and every later one
// fail with it and write nothing.
type gatedConn struct {
	net.Conn
	open, entered chan struct{}
	once          sync.Once
	fail          error
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.open
	if c.fail != nil {
		return 0, c.fail
	}
	return c.Conn.Write(p)
}

// gateLink dials the node `to` and caches the link to it over a
// gatedConn, so the link's writer holds its first write until the gate
// opens.
func gateLink(t *testing.T, tn *TCPNet, to NodeID) (*gatedConn, *tcpLink) {
	t.Helper()
	addr, ok := tn.Address(to)
	if !ok {
		t.Fatalf("%s is not registered", to)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	g := &gatedConn{Conn: conn, open: make(chan struct{}), entered: make(chan struct{})}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	l := newLink(tn, g, tn.writeTimeout)
	tn.links[to] = l
	return g, l
}

// TestTCPNetFIFOPerSender: messages from one sender reach a receiver in
// the order they were sent, while other senders race it on the same
// link.
func TestTCPNetFIFOPerSender(t *testing.T) {
	const senders, perSender = 8, 1000
	tn := NewTCP()
	defer tn.Close()
	var mu sync.Mutex
	next := make(map[NodeID]uint32)
	var delivered atomic.Int64
	if err := tn.Register("dst", func(m Message) {
		seq := binary.BigEndian.Uint32(m.Payload)
		mu.Lock()
		defer mu.Unlock()
		if seq != next[m.From] {
			t.Errorf("%s: got #%d, want #%d", m.From, seq, next[m.From])
		}
		next[m.From] = seq + 1
		delivered.Add(1)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		id := NodeID(fmt.Sprintf("s%d", i))
		if err := tn.Register(id, func(Message) {}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf [4]byte
			for seq := uint32(0); seq < perSender; seq++ {
				binary.BigEndian.PutUint32(buf[:], seq)
				if err := tn.Send(id, "dst", "k", buf[:]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == senders*perSender }, "every message")
	mu.Lock()
	defer mu.Unlock()
	if len(next) != senders {
		t.Errorf("heard from %d senders, want %d", len(next), senders)
	}
}

// TestTCPNetSenderBlocksOnQueuedBytes: once a link holds linkQueueBytes
// (its queue plus the write in flight) the next send waits, and it
// resumes when the peer reads and the writer drains the queue.
func TestTCPNetSenderBlocksOnQueuedBytes(t *testing.T) {
	tn := NewTCP()
	defer tn.Close()
	var delivered atomic.Int64
	tn.Register("a", func(Message) {})
	tn.Register("b", func(Message) { delivered.Add(1) })
	g, l := gateLink(t, tn, "b")
	release := sync.OnceFunc(func() { close(g.open) })
	defer release() // before Close, which flushes the link
	// Four quarter-bound payloads plus their headers reach the bound: the
	// first is held in the writer's write, the other three queue.
	payload := make([]byte, linkQueueBytes/4)
	for i := 0; i < 4; i++ {
		if err := tn.Send("a", "b", "k", payload); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-g.entered
		}
	}
	sent := make(chan error, 1)
	go func() { sent <- tn.Send("a", "b", "k", payload) }()
	select {
	case err := <-sent:
		t.Fatalf("send past the byte bound returned (%v) before the peer read", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.mu.Lock()
	held := l.bytes
	l.mu.Unlock()
	if held < linkQueueBytes {
		t.Fatalf("sender blocked while the link held %d bytes, under the %d bound", held, linkQueueBytes)
	}
	release()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked send never resumed after the peer read")
	}
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == 5 }, "every message")
}

// TestTCPNetDeregisterWritesQueued: what a link queued before Deregister
// or Close is written, and delivered before the call returns.
func TestTCPNetDeregisterWritesQueued(t *testing.T) {
	const queued = 100
	for _, tc := range []struct {
		name     string
		teardown func(*TCPNet) error
	}{
		{"Deregister", func(tn *TCPNet) error { return tn.Deregister("b") }},
		{"Close", func(tn *TCPNet) error { return tn.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := NewTCP()
			defer tn.Close()
			var delivered atomic.Int64
			tn.Register("a", func(Message) {})
			tn.Register("b", func(Message) { delivered.Add(1) })
			g, l := gateLink(t, tn, "b")
			// The writer holds the first frame in its write while the
			// rest queue up behind it.
			for i := 0; i < queued; i++ {
				if err := tn.Send("a", "b", "k", []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					<-g.entered
				}
			}
			done := make(chan error, 1)
			go func() { done <- tc.teardown(tn) }()
			waitFor(t, 5*time.Second, func() bool {
				l.mu.Lock()
				defer l.mu.Unlock()
				return l.closing
			}, "the link to close")
			close(g.open)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := delivered.Load(); got != queued {
				t.Errorf("delivered %d of the %d queued before %s", got, queued, tc.name)
			}
		})
	}
}

// TestTCPNetCoalescesWhileWriting: sends that arrive while the link's
// writer is in a write ship together in its next write.
func TestTCPNetCoalescesWhileWriting(t *testing.T) {
	const behind = 100
	tn := NewTCP()
	defer tn.Close()
	var delivered atomic.Int64
	tn.Register("a", func(Message) {})
	tn.Register("b", func(Message) { delivered.Add(1) })
	g, _ := gateLink(t, tn, "b")
	for i := 0; i <= behind; i++ {
		if err := tn.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-g.entered
		}
	}
	close(g.open)
	waitFor(t, 5*time.Second, func() bool { return delivered.Load() == behind+1 }, "every message")
	// One write held at the gate, one for everything queued behind it.
	if w := tn.Writes(); w != 2 {
		t.Fatalf("%d sends took %d writes, want 2", behind+1, w)
	}
}

// TestTCPNetFailedLinkAccountsEveryFrame: a failed write fails its link
// and counts every frame the link held as discarded; the next Send
// evicts the link and redials. Every frame sent is then delivered, a
// Send error or discarded.
func TestTCPNetFailedLinkAccountsEveryFrame(t *testing.T) {
	const perLink = 10
	tn := NewTCP()
	defer tn.Close()
	var delivered atomic.Int64
	tn.Register("a", func(Message) {})
	tn.Register("b", func(Message) { delivered.Add(1) })
	g, _ := gateLink(t, tn, "b")
	var errs int64
	send := func(i int) {
		if err := tn.Send("a", "b", "k", []byte{byte(i)}); err != nil {
			errs++
		}
	}
	for i := 0; i < perLink; i++ {
		send(i)
		if i == 0 {
			<-g.entered
		}
	}
	g.fail = errors.New("peer gone")
	close(g.open)
	waitFor(t, 5*time.Second, func() bool { return tn.Discarded() > 0 }, "the link to fail")
	for i := 0; i < perLink; i++ {
		send(i)
	}
	if err := tn.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tn.Discarded(); got != perLink {
		t.Errorf("discarded %d frames, want the %d the failed link held", got, perLink)
	}
	if got := tn.Evictions(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if sum := delivered.Load() + errs + tn.Discarded(); sum != 2*perLink {
		t.Errorf("delivered %d + send errors %d + discarded %d = %d, want every one of the %d sent",
			delivered.Load(), errs, tn.Discarded(), sum, 2*perLink)
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
// current value). A link takes its write deadline when it is dialed, so
// call it before the first Send; it is safe at any time.
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

// Evictions reports how many failed links a Send evicted from the
// cache.
func (t *TCPNet) Evictions() int64 { return t.evictions.Load() }

// Discarded reports how many frames failed links held when their write
// failed.
func (t *TCPNet) Discarded() int64 { return t.discarded.Load() }

// Writes reports how many write calls the links have made.
func (t *TCPNet) Writes() int64 { return t.writes.Load() }
