package simnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPNet is the Transport implementation over real sockets. Every node
// gets a listener on 127.0.0.1; Send frames the message and writes it on
// a cached connection. The wire framing matches Message.Size exactly so
// byte accounting agrees with SimNet:
//
//	uint32 frame length (excluding itself)
//	uint16 len(from) | from
//	uint16 len(to)   | to
//	uint16 len(kind) | kind
//	payload (rest of frame)
type TCPNet struct {
	traffic *Traffic

	// dialTimeout bounds outbound connection attempts; writeTimeout
	// bounds each frame write. A write that hits its deadline evicts the
	// cached connection, so a hung or unresponsive peer can never wedge
	// a sender indefinitely.
	dialTimeout  time.Duration
	writeTimeout time.Duration
	evictions    atomic.Int64

	mu     sync.RWMutex
	nodes  map[NodeID]*tcpNode
	conns  map[NodeID]net.Conn // outbound connection cache by destination
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
		conns:        make(map[NodeID]net.Conn),
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
			r := bufio.NewReader(conn)
			for {
				msg, err := readFrame(r)
				if err != nil {
					return
				}
				n.handler(msg)
			}
		}()
	}
}

// Address returns the node's listen address, for out-of-band exchange
// (e.g. the CLI printing where a node listens).
func (t *TCPNet) Address(id NodeID) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.nodes[id]
	if !ok {
		return "", false
	}
	return n.addr, true
}

// Deregister implements Transport.
func (t *TCPNet) Deregister(id NodeID) error {
	t.mu.Lock()
	n, ok := t.nodes[id]
	if !ok {
		t.mu.Unlock()
		return ErrUnknownNode{ID: id}
	}
	delete(t.nodes, id)
	if c, ok := t.conns[id]; ok {
		c.Close()
		delete(t.conns, id)
	}
	t.mu.Unlock()
	n.listener.Close()
	n.wg.Wait()
	return nil
}

// Send implements Transport.
func (t *TCPNet) Send(from, to NodeID, kind string, payload []byte) error {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return fmt.Errorf("simnet: closed")
	}
	if _, ok := t.nodes[from]; !ok {
		t.mu.RUnlock()
		return ErrUnknownNode{ID: from}
	}
	dst, ok := t.nodes[to]
	if !ok {
		t.mu.RUnlock()
		return ErrUnknownNode{ID: to}
	}
	conn := t.conns[to]
	addr := dst.addr
	wt := t.writeTimeout
	t.mu.RUnlock()

	if conn == nil {
		var err error
		conn, err = t.dial(to, addr)
		if err != nil {
			return err
		}
	}
	// The frame is built in a pooled buffer: a write consumes it before
	// returning, so it goes back to the pool once Send is done with it.
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	*buf = appendFrame((*buf)[:0], Message{From: from, To: to, Kind: kind, Payload: payload})
	frame := *buf
	t.traffic.Record(from, to, len(frame))
	if err := writeDeadlined(conn, frame, wt); err != nil {
		// Connection went stale (peer gone, or unresponsive past the
		// write deadline); evict it and retry once on a fresh one.
		t.dropConn(to, conn)
		conn, derr := t.dial(to, addr)
		if derr != nil {
			return derr
		}
		if err := writeDeadlined(conn, frame, wt); err != nil {
			t.dropConn(to, conn)
			return fmt.Errorf("simnet: send %s→%s: %w", from, to, err)
		}
	}
	return nil
}

// framePool holds Send's frame buffers.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// writeDeadlined writes one frame under the transport's write deadline.
func writeDeadlined(conn net.Conn, frame []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
	}
	_, err := conn.Write(frame)
	return err
}

func (t *TCPNet) dial(to NodeID, addr string) (net.Conn, error) {
	t.mu.RLock()
	dt := t.dialTimeout
	t.mu.RUnlock()
	conn, err := net.DialTimeout("tcp", addr, dt)
	if err != nil {
		return nil, fmt.Errorf("simnet: dial %q: %w", to, err)
	}
	t.mu.Lock()
	if existing, ok := t.conns[to]; ok {
		// Lost a dial race; use the cached connection.
		t.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	t.conns[to] = conn
	t.mu.Unlock()
	return conn, nil
}

func (t *TCPNet) dropConn(to NodeID, conn net.Conn) {
	conn.Close()
	t.evictions.Add(1)
	t.mu.Lock()
	if t.conns[to] == conn {
		delete(t.conns, to)
	}
	t.mu.Unlock()
}

// Traffic implements Transport.
func (t *TCPNet) Traffic() *Traffic { return t.traffic }

// Close implements Transport.
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
	conns := t.conns
	t.conns = make(map[NodeID]net.Conn)
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
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

// readFrame decodes one frame from r.
func readFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	body := binary.LittleEndian.Uint32(hdr[:])
	if body > maxFrame {
		return Message{}, errors.New("simnet: frame exceeds bound")
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Message{}, err
	}
	var msg Message
	off := 0
	readStr := func() (string, error) {
		if len(buf)-off < 2 {
			return "", errors.New("simnet: truncated frame")
		}
		n := int(binary.LittleEndian.Uint16(buf[off:]))
		off += 2
		if len(buf)-off < n {
			return "", errors.New("simnet: truncated frame string")
		}
		s := string(buf[off : off+n])
		off += n
		return s, nil
	}
	from, err := readStr()
	if err != nil {
		return Message{}, err
	}
	to, err := readStr()
	if err != nil {
		return Message{}, err
	}
	kind, err := readStr()
	if err != nil {
		return Message{}, err
	}
	msg.From, msg.To, msg.Kind = NodeID(from), NodeID(to), kind
	msg.Payload = buf[off:]
	return msg, nil
}

var _ Transport = (*TCPNet)(nil)
