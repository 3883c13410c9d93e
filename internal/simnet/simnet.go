package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyModel is the parameter NewSim still takes; only nil is
// accepted. Link delay, loss and reordering are FaultPlan rules.
type LatencyModel func(from, to Point) time.Duration

// SimNet is the in-process Transport: a wire that meters every byte.
// Each node queues only what is pending for it, and one runner goroutine
// per node hands the queue to the handler in FIFO order. Like a TCP
// link's queue, a node's queue is bytes: Send copies the lent payload
// into the node's arena, and the handler is lent it from there. A sender
// blocks while the receiver holds linkQueueBytes or more of undelivered
// messages (backpressure on a congested receiver). Delivery is
// asynchronous but immediate: a link delay is a FaultPlan rule.
type SimNet struct {
	traffic *Traffic

	mu     sync.RWMutex
	nodes  map[NodeID]*simNode
	closed bool
}

type simNode struct {
	handler Handler
	done    chan struct{}

	mu sync.Mutex
	// ready parks the runner while the queue is empty; room parks
	// senders while bytes is at or above linkQueueBytes.
	ready, room sync.Cond
	// queue holds what is pending, and arena its payloads back to back,
	// in queue order. spare and spareArena are the runner's last drained
	// batch and its arena, handed back so steady state allocates
	// nothing; an arena above keptPayloadBytes is dropped instead.
	queue, spare      []Message
	arena, spareArena []byte
	// bytes is the wire size of every message accepted and not yet
	// delivered: the queue plus the batch the runner is handling.
	bytes  int
	closed bool
	// pending counts messages from the moment a sender commits to this
	// node until the handler for them returns. Incremented at enqueue
	// and decremented after processing, it never dips to zero in the
	// middle of a delivery cascade (a handler increments its target
	// before returning), which is what makes Quiesce sound.
	pending atomic.Int64
}

// NewSim returns a simulated network. latency must be nil: link delay,
// loss and reordering are FaultPlan rules (NewFaultPlan, SetLinkFaults).
func NewSim(latency LatencyModel) *SimNet {
	if latency != nil {
		panic("simnet: NewSim takes no latency model; link delay is a FaultPlan rule (LinkFaults.Jitter, ReorderDelay)")
	}
	return &SimNet{
		traffic: NewTraffic(),
		nodes:   make(map[NodeID]*simNode),
	}
}

// Register implements Transport.
func (s *SimNet) Register(id NodeID, h Handler) error {
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
	n := &simNode{handler: h, done: make(chan struct{})}
	n.ready.L = &n.mu
	n.room.L = &n.mu
	s.nodes[id] = n
	go n.run()
	return nil
}

// enqueue appends msg to the node's queue and copies its lent payload
// into the arena, waiting while the node holds linkQueueBytes or more. A
// node that closes first takes nothing.
func (n *simNode) enqueue(msg Message, size int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.bytes >= linkQueueBytes && !n.closed {
		n.room.Wait()
	}
	if n.closed {
		return
	}
	n.pending.Add(1)
	start := len(n.arena)
	n.arena = append(n.arena, msg.Payload...)
	msg.Payload = n.arena[start:]
	n.queue = append(n.queue, msg)
	n.bytes += size
	if len(n.queue) == 1 {
		n.ready.Signal()
	}
}

// run delivers the queue until the node closes and what it had queued is
// delivered. It swaps the whole queue and its arena out, runs the
// handlers outside the lock, and keeps the drained slice and arena as
// the next spares. Each handler is lent its payload for the call, from
// the arena's final backing array (an append that grew it copied the
// payloads over): the arena is written again once it is the spare.
func (n *simNode) run() {
	defer close(n.done)
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		for len(n.queue) == 0 && !n.closed {
			n.ready.Wait()
		}
		if len(n.queue) == 0 {
			return
		}
		batch, arena, size := n.queue, n.arena, n.bytes
		n.queue, n.spare = n.spare, nil
		n.arena, n.spareArena = n.spareArena, nil
		n.mu.Unlock()
		off := 0
		for _, m := range batch {
			end := off + len(m.Payload)
			m.Payload = arena[off:end:end]
			off = end
			n.handler(m)
		}
		n.pending.Add(-int64(len(batch)))
		clear(batch) // the spare must not keep a dropped arena alive
		if poisonArenas {
			for i := range arena {
				arena[i] = 0xff
			}
		}
		if cap(arena) > keptPayloadBytes {
			arena = nil
		}
		n.mu.Lock()
		n.spare, n.spareArena = batch[:0], arena[:0]
		n.bytes -= size
		n.room.Broadcast()
	}
}

// shutdown closes the node: waiting senders give up, and the runner
// delivers what is already queued, then exits.
func (n *simNode) shutdown() {
	n.mu.Lock()
	n.closed = true
	n.ready.Signal()
	n.room.Broadcast()
	n.mu.Unlock()
	<-n.done
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

// Send implements Transport: it copies the lent payload into the
// destination's arena. It blocks while the destination holds
// linkQueueBytes of undelivered messages (backpressure) and fails if
// either endpoint is unknown.
func (s *SimNet) Send(from, to NodeID, kind string, payload []byte) error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("simnet: closed")
	}
	if _, ok := s.nodes[from]; !ok {
		s.mu.RUnlock()
		return ErrUnknownNode{ID: from}
	}
	dst, ok := s.nodes[to]
	s.mu.RUnlock()
	if !ok {
		return ErrUnknownNode{ID: to}
	}

	msg := Message{From: from, To: to, Kind: kind, Payload: payload}
	size := msg.Size()
	s.traffic.Record(from, to, size)
	// A concurrent deregistration makes this a send-to-nobody: the
	// message was on the wire when the node vanished.
	dst.enqueue(msg, size)
	return nil
}

// Traffic implements Transport.
func (s *SimNet) Traffic() *Traffic { return s.traffic }

// Quiesce waits until every queue is empty AND every handler has
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
