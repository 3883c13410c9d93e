package simnet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sspd/internal/metrics"
)

// NodeID names one communication endpoint (a processor, an entity
// wrapper, a coordinator, or a stream source).
type NodeID string

// Message is one transport delivery.
type Message struct {
	From, To NodeID
	// Kind is the application-level message type ("tuples", "join",
	// "interest", ...). Handlers dispatch on it.
	Kind string
	// Payload is the encoded body.
	Payload []byte
}

// Size returns the accounted size of the message in bytes: payload plus
// a fixed header charge mirroring the framing of the TCP transport.
func (m Message) Size() int {
	return len(m.Payload) + frameOverhead(len(m.From), len(m.To), len(m.Kind))
}

func frameOverhead(fromLen, toLen, kindLen int) int {
	// 4-byte total length + 3 length-prefixed strings.
	return 4 + 2 + fromLen + 2 + toLen + 2 + kindLen
}

// linkQueueBytes bounds what one link holds undelivered, on either
// transport: a SimNet receiver's queue, and a TCP link's pending frames
// plus the write in flight. A sender blocks at it, so a congested
// receiver or a slow socket pushes back on its senders.
const linkQueueBytes = 4 << 20

// keptPayloadBytes bounds each payload buffer a receiver keeps for reuse:
// a SimNet node's two arenas (one filling, one being delivered) and a
// TCP connection's payload buffer. Steady traffic fits well under it, so
// a delivery allocates nothing; a buffer a burst grew beyond it is
// dropped once delivered, so a burst does not pin memory for good.
const keptPayloadBytes = 1 << 20

// Handler consumes delivered messages. Handlers run on transport
// goroutines and must not block for long.
type Handler func(Message)

// Transport moves messages between named nodes and meters every byte.
type Transport interface {
	// Register creates an endpoint. The handler receives messages
	// addressed to id.
	Register(id NodeID, h Handler) error
	// Deregister removes an endpoint; messages to it start failing.
	Deregister(id NodeID) error
	// Send delivers a message from one endpoint to another. What a nil
	// return promises:
	//   1. The link to `to` accepted the message. It does not mean the
	//      message was written or delivered.
	//   2. It is behind every earlier Send from the same sender to the
	//      same destination: a link is FIFO per sender (a FaultPlan's
	//      jitter and reorder rules break this on purpose). Messages from
	//      different senders to one destination interleave in any order.
	//   3. A failure to write it surfaces on a later Send to the same
	//      destination, not on this one (TCPNet counts the frames a
	//      failed link discarded).
	// A sender blocks while the link to `to` holds 4 MiB or more
	// undelivered (linkQueueBytes), so a slow receiver pushes back.
	//
	// Ownership is lent both ways. Send is lent payload for the call:
	// the caller may overwrite or pool the backing array the moment Send
	// returns (the relay and the entity encode into pooled buffers on
	// exactly this guarantee), so a transport copies it into storage of
	// its own before returning (a SimNet node's arena, a TCP link's
	// queue). A delivered Message.Payload is lent to its handler for the
	// duration of the call: the transport writes the next payloads into
	// the same storage once the handler returns. A handler that keeps
	// bytes past the call copies them; one that passes them on lends them
	// to Send like any other payload.
	Send(from, to NodeID, kind string, payload []byte) error
	// Traffic exposes the transport's byte accounting.
	Traffic() *Traffic
	// Close shuts the transport down.
	Close() error
}

// Settle waits for t's in-flight messages to land: exactly as long as
// needed, up to timeout, on a transport that can tell (SimNet and a
// FaultPlan over it have Quiesce), a short grace sleep on one that
// cannot (TCP).
func Settle(t Transport, timeout time.Duration) {
	if q, ok := t.(interface{ Quiesce(time.Duration) bool }); ok {
		q.Quiesce(timeout)
		return
	}
	time.Sleep(min(timeout/20, 50*time.Millisecond))
}

// Traffic aggregates byte counters: total, per sending node (egress) and
// per link. All methods are safe for concurrent use.
type Traffic struct {
	mu     sync.Mutex
	total  metrics.ByteMeter
	egress map[NodeID]*metrics.ByteMeter
	links  map[linkKey]*metrics.ByteMeter
}

type linkKey struct{ from, to NodeID }

// NewTraffic returns an empty accounting table.
func NewTraffic() *Traffic {
	return &Traffic{
		egress: make(map[NodeID]*metrics.ByteMeter),
		links:  make(map[linkKey]*metrics.ByteMeter),
	}
}

// Record accounts one message of n bytes on from→to.
func (t *Traffic) Record(from, to NodeID, n int) {
	t.total.Record(n)
	t.mu.Lock()
	eg := t.egress[from]
	if eg == nil {
		eg = &metrics.ByteMeter{}
		t.egress[from] = eg
	}
	lk := t.links[linkKey{from, to}]
	if lk == nil {
		lk = &metrics.ByteMeter{}
		t.links[linkKey{from, to}] = lk
	}
	t.mu.Unlock()
	eg.Record(n)
	lk.Record(n)
}

// TotalBytes returns all bytes sent through the transport.
func (t *Traffic) TotalBytes() int64 { return t.total.Bytes() }

// TotalMessages returns all messages sent through the transport.
func (t *Traffic) TotalMessages() int64 { return t.total.Messages() }

// EgressBytes returns the bytes sent by one node.
func (t *Traffic) EgressBytes(id NodeID) int64 {
	t.mu.Lock()
	eg := t.egress[id]
	t.mu.Unlock()
	if eg == nil {
		return 0
	}
	return eg.Bytes()
}

// IngressBytes returns the bytes received by one node across all links.
func (t *Traffic) IngressBytes(id NodeID) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for key, m := range t.links {
		if key.to == id {
			total += m.Bytes()
		}
	}
	return total
}

// LinkBytes returns the bytes sent on the from→to link.
func (t *Traffic) LinkBytes(from, to NodeID) int64 {
	t.mu.Lock()
	lk := t.links[linkKey{from, to}]
	t.mu.Unlock()
	if lk == nil {
		return 0
	}
	return lk.Bytes()
}

// MaxEgress returns the node with the largest egress and its byte count —
// the hot spot the dissemination experiments watch (a source feeding all
// entities directly maximizes this).
func (t *Traffic) MaxEgress() (NodeID, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var worst NodeID
	var worstBytes int64 = -1
	ids := make([]NodeID, 0, len(t.egress))
	for id := range t.egress {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if b := t.egress[id].Bytes(); b > worstBytes {
			worst, worstBytes = id, b
		}
	}
	if worstBytes < 0 {
		return "", 0
	}
	return worst, worstBytes
}

// Reset zeroes all counters.
func (t *Traffic) Reset() {
	t.total.Reset()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.egress = make(map[NodeID]*metrics.ByteMeter)
	t.links = make(map[linkKey]*metrics.ByteMeter)
}

// ErrUnknownNode is returned when sending to or from an unregistered id.
type ErrUnknownNode struct {
	ID NodeID
}

// Error implements error.
func (e ErrUnknownNode) Error() string {
	return fmt.Sprintf("simnet: unknown node %q", string(e.ID))
}
