package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel maps a link to a one-way delivery delay.
type LatencyModel func(from, to Point) time.Duration

// ConstantLatency returns d for every link.
func ConstantLatency(d time.Duration) LatencyModel {
	return func(_, _ Point) time.Duration { return d }
}

// DistanceLatency returns base plus perUnit per unit of Euclidean
// distance — the wide-area model (locality matters).
func DistanceLatency(base time.Duration, perUnit time.Duration) LatencyModel {
	return func(from, to Point) time.Duration {
		return base + time.Duration(from.Distance(to)*float64(perUnit))
	}
}

// SimNet is the in-process Transport. Each node has a position and an
// inbox goroutine; Send enqueues the message and the inbox delivers it
// after the modeled latency. With a zero latency model delivery is still
// asynchronous but immediate.
type SimNet struct {
	latency LatencyModel
	traffic *Traffic

	mu     sync.RWMutex
	nodes  map[NodeID]*simNode
	closed bool
}

type simNode struct {
	id      NodeID
	pos     Point
	handler Handler
	inbox   chan delivery
	done    chan struct{}
	// sendMu serializes sends against inbox closure: senders hold the
	// read side across the channel send; Deregister/Close take the
	// write side before closing. The inbox consumer keeps draining
	// until the close, so blocked senders always make progress.
	sendMu sync.RWMutex
	closed bool
	// pending counts messages from the moment a sender commits to this
	// node until the handler for them returns. Incremented at enqueue
	// and decremented after processing, it never dips to zero in the
	// middle of a delivery cascade (a handler increments its target
	// before returning), which is what makes Quiesce sound.
	pending atomic.Int64
}

// trySend delivers d unless the node is closing. It reports whether the
// message was accepted.
func (n *simNode) trySend(d delivery) bool {
	n.sendMu.RLock()
	defer n.sendMu.RUnlock()
	if n.closed {
		return false
	}
	n.pending.Add(1)
	n.inbox <- d
	return true
}

// shutdown marks the node closed and closes its inbox exactly once.
func (n *simNode) shutdown() {
	n.sendMu.Lock()
	alreadyClosed := n.closed
	n.closed = true
	n.sendMu.Unlock()
	if !alreadyClosed {
		close(n.inbox)
	}
	<-n.done
}

type delivery struct {
	msg   Message
	delay time.Duration
}

// simInboxDepth bounds each node's inbox; senders block when it is full,
// modeling backpressure on a congested receiver.
const simInboxDepth = 4096

// NewSim returns a simulated network with the given latency model (nil
// means zero latency).
func NewSim(latency LatencyModel) *SimNet {
	if latency == nil {
		latency = ConstantLatency(0)
	}
	return &SimNet{
		latency: latency,
		traffic: NewTraffic(),
		nodes:   make(map[NodeID]*simNode),
	}
}

// Register implements Transport with the node at the origin. Use
// RegisterAt to place it.
func (s *SimNet) Register(id NodeID, h Handler) error {
	return s.RegisterAt(id, Point{}, h)
}

// RegisterAt creates an endpoint at a position in the coordinate space.
func (s *SimNet) RegisterAt(id NodeID, at Point, h Handler) error {
	if h == nil {
		return fmt.Errorf("simnet: node %q needs a handler", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("simnet: closed")
	}
	if _, dup := s.nodes[id]; dup {
		return fmt.Errorf("simnet: node %q already registered", id)
	}
	n := &simNode{
		id:      id,
		pos:     at,
		handler: h,
		inbox:   make(chan delivery, simInboxDepth),
		done:    make(chan struct{}),
	}
	s.nodes[id] = n
	go n.run()
	return nil
}

func (n *simNode) run() {
	defer close(n.done)
	for d := range n.inbox {
		if d.delay > 0 {
			time.Sleep(d.delay)
		}
		n.handler(d.msg)
		n.pending.Add(-1)
	}
}

// Deregister implements Transport.
func (s *SimNet) Deregister(id NodeID) error {
	s.mu.Lock()
	n, ok := s.nodes[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownNode{ID: id}
	}
	delete(s.nodes, id)
	s.mu.Unlock()
	n.shutdown()
	return nil
}

// Send implements Transport. It blocks when the destination inbox is
// full (backpressure) and fails if either endpoint is unknown.
func (s *SimNet) Send(from, to NodeID, kind string, payload []byte) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("simnet: closed")
	}
	src, ok := s.nodes[from]
	if !ok {
		s.mu.RUnlock()
		return ErrUnknownNode{ID: from}
	}
	dst, ok := s.nodes[to]
	if !ok {
		s.mu.RUnlock()
		return ErrUnknownNode{ID: to}
	}
	delay := s.latency(src.pos, dst.pos)
	s.mu.RUnlock()

	msg := Message{From: from, To: to, Kind: kind, Payload: payload}
	s.traffic.Record(from, to, msg.Size())
	// Delivery is asynchronous, but the Transport.Send contract lets the
	// caller reuse the payload buffer as soon as Send returns — so the
	// inbox gets its own copy, which the handler then owns outright.
	if len(payload) > 0 {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		msg.Payload = cp
	}
	// A concurrent deregistration makes this a send-to-nobody: the
	// message was on the wire when the node vanished.
	dst.trySend(delivery{msg: msg, delay: delay})
	return nil
}

// Traffic implements Transport.
func (s *SimNet) Traffic() *Traffic { return s.traffic }

// Quiesce waits until every inbox is empty AND every handler has
// returned (two consecutive observations, so a handler that sends new
// messages re-arms the wait), or the timeout expires.
func (s *SimNet) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	idleStreak := 0
	for {
		s.mu.RLock()
		busy := 0
		for _, n := range s.nodes {
			busy += int(n.pending.Load())
		}
		s.mu.RUnlock()
		if busy == 0 {
			idleStreak++
			if idleStreak >= 2 {
				return true
			}
		} else {
			idleStreak = 0
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close implements Transport.
func (s *SimNet) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	nodes := make([]*simNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		nodes = append(nodes, n)
	}
	s.nodes = make(map[NodeID]*simNode)
	s.mu.Unlock()
	for _, n := range nodes {
		n.shutdown()
	}
	return nil
}

var _ Transport = (*SimNet)(nil)
