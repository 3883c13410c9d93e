package simnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNet is the Transport implementation over real sockets. Every node
// gets a listener on 127.0.0.1. The cached connection to a destination is
// a link: one queue of pending frames and one writer goroutine. Send
// frames the message into the queue, and the writer writes everything
// that accumulated while its previous write was in flight in one call.
// The wire framing matches Message.Size exactly so byte accounting agrees
// with SimNet:
//
//	uint32 frame length (excluding itself)
//	uint16 len(from) | from
//	uint16 len(to)   | to
//	uint16 len(kind) | kind
//	payload (rest of frame)
type TCPNet struct {
	traffic *Traffic

	// dialTimeout bounds outbound connection attempts; writeTimeout
	// bounds each write a link makes. A write that fails (its deadline
	// passed, or the peer is gone) fails the link: the link discards
	// what it holds (discarded counts those frames), and the next Send
	// to that destination evicts it and dials a fresh one, so a hung or
	// unresponsive peer can never wedge a sender indefinitely.
	dialTimeout  time.Duration
	writeTimeout time.Duration
	evictions    atomic.Int64
	discarded    atomic.Int64
	writes       atomic.Int64 // write calls made by every link

	mu     sync.RWMutex
	nodes  map[NodeID]*tcpNode
	links  map[NodeID]*tcpLink // outbound link by destination
	closed bool
}

type tcpNode struct {
	id       NodeID
	handler  Handler
	listener net.Listener
	addr     string // listener.Addr().String(), formatted once
	wg       sync.WaitGroup
}

// NewTCP returns an empty TCP transport with default 5s dial and write
// deadlines.
func NewTCP() *TCPNet {
	return &TCPNet{
		traffic:      NewTraffic(),
		dialTimeout:  5 * time.Second,
		writeTimeout: 5 * time.Second,
		nodes:        make(map[NodeID]*tcpNode),
		links:        make(map[NodeID]*tcpLink),
	}
}

// Register implements Transport: it opens a loopback listener for the
// node and serves frames to the handler.
func (t *TCPNet) Register(id NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: node %q needs a handler", id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("simnet: listen for %q: %w", id, err)
	}
	n := &tcpNode{id: id, handler: h, listener: ln, addr: ln.Addr().String()}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return fmt.Errorf("simnet: closed")
	}
	if _, dup := t.nodes[id]; dup {
		t.mu.Unlock()
		ln.Close()
		return fmt.Errorf("simnet: node %q already registered", id)
	}
	t.nodes[id] = n
	t.mu.Unlock()

	n.wg.Add(1)
	go n.serve()
	return nil
}

func (n *tcpNode) serve() {
	defer n.wg.Done()
	for {
		conn, err := n.listener.Accept()
		if err != nil {
			return // listener closed
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer conn.Close()
			fr := newFrameReader(conn)
			for {
				msg, err := fr.next()
				if err != nil {
					return
				}
				n.handler(msg)
			}
		}()
	}
}

// Deregister implements Transport. The link to id writes what it already
// queued (under the write deadline) before its connection closes, and the
// node's handler has seen every frame that arrived when Deregister
// returns.
func (t *TCPNet) Deregister(id NodeID) error {
	t.mu.Lock()
	n, ok := t.nodes[id]
	if !ok {
		t.mu.Unlock()
		return ErrUnknownNode{ID: id}
	}
	delete(t.nodes, id)
	l := t.links[id]
	delete(t.links, id)
	t.mu.Unlock()
	if l != nil {
		l.stop()
		<-l.done
	}
	n.listener.Close()
	n.wg.Wait()
	return nil
}

// Send implements Transport. A nil return means the link to `to` took
// the frame; the link's writer writes it. A write failure fails the
// link, and the next Send to that destination evicts it and retries once
// on a fresh one.
func (t *TCPNet) Send(from, to NodeID, kind string, payload []byte) error {
	msg := Message{From: from, To: to, Kind: kind, Payload: payload}
	var err error
	for try := 0; try < 2; try++ {
		var l *tcpLink
		if l, err = t.link(from, to); err != nil {
			return err
		}
		if err = l.enqueue(msg); err == nil {
			t.traffic.Record(from, to, msg.Size())
			return nil
		}
		t.evict(to, l)
	}
	return fmt.Errorf("simnet: send %s→%s: %w", from, to, err)
}

// link returns the cached link to `to`, dialing one on first use. Both
// endpoints must be registered.
func (t *TCPNet) link(from, to NodeID) (*tcpLink, error) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return nil, fmt.Errorf("simnet: closed")
	}
	if _, ok := t.nodes[from]; !ok {
		t.mu.RUnlock()
		return nil, ErrUnknownNode{ID: from}
	}
	dst, ok := t.nodes[to]
	if !ok {
		t.mu.RUnlock()
		return nil, ErrUnknownNode{ID: to}
	}
	l := t.links[to]
	dt, wt := t.dialTimeout, t.writeTimeout
	t.mu.RUnlock()
	if l != nil {
		return l, nil
	}

	conn, err := net.DialTimeout("tcp", dst.addr, dt)
	if err != nil {
		return nil, fmt.Errorf("simnet: dial %q: %w", to, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.nodes[to] != dst {
		// Closed or deregistered while dialing: a link now would
		// outlive its destination.
		conn.Close()
		return nil, ErrUnknownNode{ID: to}
	}
	if l := t.links[to]; l != nil {
		// Lost a dial race; use the cached link.
		conn.Close()
		return l, nil
	}
	l = newLink(t, conn, wt)
	t.links[to] = l
	return l, nil
}

// evict drops a failed link from the cache, unless a newer one has
// replaced it already.
func (t *TCPNet) evict(to NodeID, l *tcpLink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.links[to] == l {
		delete(t.links, to)
		t.evictions.Add(1)
	}
}

// tcpLink is one cached outbound connection: senders frame messages into
// its queue, and one writer goroutine writes whatever accumulated while
// its previous write was in flight, in one call. It is the shard ring's
// drain-what-accumulated rule one layer out: no timer and no size knob.
type tcpLink struct {
	tcp     *TCPNet
	conn    net.Conn
	timeout time.Duration
	done    chan struct{} // closed once the writer has closed conn

	mu sync.Mutex
	// ready parks the writer while the queue is empty; room parks
	// senders while bytes is at or above linkQueueBytes.
	ready, room sync.Cond
	// queue holds the pending frames back to back; spare is the
	// writer's last written buffer, handed back so steady state
	// allocates nothing.
	queue, spare []byte
	frames       int // frames in queue
	// bytes is what the link holds: the queue plus the write in flight.
	bytes int
	// err is the write error that failed the link; a failed link takes
	// nothing more.
	err error
	// closing is set by Deregister and Close: the link takes nothing
	// more, and the writer writes what is queued, then exits.
	closing bool
}

func newLink(t *TCPNet, conn net.Conn, timeout time.Duration) *tcpLink {
	l := &tcpLink{tcp: t, conn: conn, timeout: timeout, done: make(chan struct{})}
	l.ready.L = &l.mu
	l.room.L = &l.mu
	go l.run()
	return l
}

// errLinkClosed is what a send racing Deregister or Close gets from the
// link; Send then finds the destination gone.
var errLinkClosed = errors.New("simnet: link closed")

// enqueue frames msg onto the queue, waiting while the link holds
// linkQueueBytes or more. It wakes the writer only when the queue was
// empty, and fails once the link has failed or is closing.
func (l *tcpLink) enqueue(msg Message) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.bytes >= linkQueueBytes && l.err == nil && !l.closing {
		l.room.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if l.closing {
		return errLinkClosed
	}
	n := len(l.queue)
	l.queue = appendFrame(l.queue, msg)
	l.bytes += len(l.queue) - n
	l.frames++
	if n == 0 {
		l.ready.Signal()
	}
	return nil
}

// run is the link's writer. It swaps the whole queue out, writes it in
// one call outside the lock, and keeps the written buffer as the next
// spare. A failed write fails the link: the writer discards what is
// pending, counting its frames, and wakes blocked senders with the
// error. Either way the writer closes the connection when it exits.
func (l *tcpLink) run() {
	defer close(l.done)
	defer l.conn.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		for len(l.queue) == 0 && !l.closing {
			l.ready.Wait()
		}
		if len(l.queue) == 0 {
			return // closing, and everything queued is written
		}
		buf, frames := l.queue, l.frames
		l.queue, l.spare, l.frames = l.spare, nil, 0
		l.mu.Unlock()
		err := writeDeadlined(l.conn, buf, l.timeout)
		l.tcp.writes.Add(1)
		l.mu.Lock()
		l.bytes -= len(buf)
		l.spare = buf[:0]
		l.room.Broadcast()
		if err != nil {
			l.err = err
			l.tcp.discarded.Add(int64(frames + l.frames))
			l.queue, l.spare, l.frames, l.bytes = nil, nil, 0, 0
			return
		}
	}
}

// stop closes the link to new frames and wakes its writer, which writes
// what is queued and exits; done closes once the connection has closed.
// Waiting senders give up.
func (l *tcpLink) stop() {
	l.mu.Lock()
	l.closing = true
	l.ready.Signal()
	l.room.Broadcast()
	l.mu.Unlock()
}

// writeDeadlined writes buf under the transport's write deadline.
func writeDeadlined(conn net.Conn, buf []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(buf)
	return err
}

// Traffic implements Transport.
func (t *TCPNet) Traffic() *Traffic { return t.traffic }

// Close implements Transport. Every link writes what it already queued
// (under the write deadline) before its connection closes.
func (t *TCPNet) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	nodes := make([]*tcpNode, 0, len(t.nodes))
	for _, n := range t.nodes {
		nodes = append(nodes, n)
	}
	t.nodes = make(map[NodeID]*tcpNode)
	links := t.links
	t.links = make(map[NodeID]*tcpLink)
	t.mu.Unlock()
	for _, l := range links {
		l.stop()
	}
	for _, l := range links {
		<-l.done
	}
	for _, n := range nodes {
		n.listener.Close()
		n.wg.Wait()
	}
	return nil
}

const maxFrame = 16 << 20

// appendFrame encodes msg onto dst.
func appendFrame(dst []byte, msg Message) []byte {
	body := 2 + len(msg.From) + 2 + len(msg.To) + 2 + len(msg.Kind) + len(msg.Payload)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(body))
	for _, s := range []string{string(msg.From), string(msg.To), msg.Kind} {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return append(dst, msg.Payload...)
}

// frameReader decodes the frames of one connection. It keeps the last
// frame's From, To and Kind and reuses them while the next frame's bytes
// are equal, and it reads every payload into one buffer, so a warm frame
// allocates nothing. The connection's handler runs on the reader's
// goroutine, so a payload is lent to it until the next frame is read.
type frameReader struct {
	r        *bufio.Reader
	hdr      [4]byte
	str      []byte // one header string's bytes, reused
	payload  []byte // the last frame's payload, reused up to keptPayloadBytes
	from, to string
	kind     string
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// next decodes one frame. The last frame's payload is written over, or
// dropped first if a large frame grew it beyond keptPayloadBytes, so an
// idle connection keeps no more than that.
func (fr *frameReader) next() (Message, error) {
	if poisonArenas {
		for i := range fr.payload {
			fr.payload[i] = 0xff
		}
	}
	if cap(fr.payload) > keptPayloadBytes {
		fr.payload = nil
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:4]); err != nil {
		return Message{}, err
	}
	left := binary.LittleEndian.Uint32(fr.hdr[:4])
	if left > maxFrame {
		return Message{}, errors.New("simnet: frame exceeds bound")
	}
	var err error
	for _, s := range [...]*string{&fr.from, &fr.to, &fr.kind} {
		if left, err = fr.readString(left, s); err != nil {
			return Message{}, err
		}
	}
	fr.payload = slices.Grow(fr.payload[:0], int(left))[:left]
	if _, err := io.ReadFull(fr.r, fr.payload); err != nil {
		return Message{}, err
	}
	return Message{From: NodeID(fr.from), To: NodeID(fr.to), Kind: fr.kind, Payload: fr.payload[:left:left]}, nil
}

// readString reads one length-prefixed header string of a frame with
// left body bytes to go into *last, allocating only when it differs from
// the string already there. It returns the body bytes left after it.
func (fr *frameReader) readString(left uint32, last *string) (uint32, error) {
	if left < 2 {
		return 0, errors.New("simnet: truncated frame")
	}
	if _, err := io.ReadFull(fr.r, fr.hdr[:2]); err != nil {
		return 0, err
	}
	n := uint32(binary.LittleEndian.Uint16(fr.hdr[:2]))
	left -= 2
	if left < n {
		return 0, errors.New("simnet: truncated frame string")
	}
	fr.str = slices.Grow(fr.str[:0], int(n))[:n]
	if _, err := io.ReadFull(fr.r, fr.str); err != nil {
		return 0, err
	}
	if string(fr.str) != *last {
		*last = string(fr.str)
	}
	return left - n, nil
}

var _ Transport = (*TCPNet)(nil)
