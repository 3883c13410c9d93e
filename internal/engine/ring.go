package engine

import (
	"sync/atomic"
	"time"

	"sspd/internal/stream"
)

// shardRing is the bounded lock-free queue feeding one shard goroutine.
// Producers (every feed call: a delegation fan-out, a frame handler, an
// upstream fragment's emit) enqueue the batches they hand over, whole;
// the single shard goroutine dequeues. Capacity is a power of
// two so slot addressing is one mask, and head/tail live on their own
// cache lines so the producer and consumer never false-share.
//
// The design is the classic bounded MPSC ring with per-slot sequence
// numbers: in steady state one delegation processor produces and the
// ring degenerates to SPSC, but correctness does not depend on it —
// several goroutines may feed one shard at once. Enqueue never
// blocks: a full ring reports failure and the caller drops-and-counts,
// preserving the engine's never-block contract.
type shardRing struct {
	mask  uint64
	slots []ringSlot
	_     [64]byte
	head  atomic.Uint64 // consumer position
	_     [64]byte
	tail  atomic.Uint64 // producer reservation
	_     [64]byte
}

// ringItem is one ring slot's payload: either a same-stream data batch
// or a control item (never both).
type ringItem struct {
	// b is a same-stream data batch. Read-only once enqueued; shards
	// sharing a batch never mutate tuples in place (the Tuple contract).
	b stream.Batch
	// lease, when non-nil, is the arena b lives in; the item holds one
	// reference, released once its last query has run (or it is dropped).
	lease *stream.Lease
	// qs lists the queries to run the batch through, all owned by the
	// shard the item is enqueued on: a stream route's queries, the group
	// of a grouped feed, or a query's list of one. Read-only once
	// enqueued.
	qs []*shardQuery
	// arrived is the enqueue timestamp the delay measurement starts from.
	arrived time.Time
	// ctl marks a control item (register/unregister/state/adapt).
	ctl *shardCtl
}

type ringSlot struct {
	seq  atomic.Uint64
	item ringItem
	// Pad the slot so neighbouring slots' seq words do not share a
	// cache line under concurrent enqueue/dequeue.
	_ [16]byte
}

// newShardRing returns a ring with the given power-of-two capacity.
func newShardRing(capacity int) *shardRing {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic("engine: shard ring capacity must be a power of two")
	}
	r := &shardRing{mask: uint64(capacity - 1), slots: make([]ringSlot, capacity)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// enqueue attempts to publish one item; false means the ring is full
// and the item was not enqueued (the caller counts the drop).
func (r *shardRing) enqueue(item ringItem) bool {
	pos := r.tail.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch {
		case seq == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				slot.item = item
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
		case seq < pos:
			// The slot still holds an unconsumed item from a full lap
			// ago: the ring is full.
			return false
		default:
			pos = r.tail.Load()
		}
	}
}

// dequeue pops the oldest item. Single consumer only.
func (r *shardRing) dequeue() (ringItem, bool) {
	pos := r.head.Load()
	slot := &r.slots[pos&r.mask]
	seq := slot.seq.Load()
	if seq != pos+1 {
		return ringItem{}, false
	}
	item := slot.item
	slot.item = ringItem{} // release the batch reference
	slot.seq.Store(pos + r.mask + 1)
	r.head.Store(pos + 1)
	return item, true
}

// occupancy returns the number of items currently in the ring — a racy
// estimate (producers and the consumer move concurrently), read from
// the same two words the enqueue path already touches. No clock, no
// allocation: the telemetry sampling discipline of the publish path.
func (r *shardRing) occupancy() uint64 {
	t, h := r.tail.Load(), r.head.Load()
	if t < h {
		return 0
	}
	return t - h
}

// empty reports whether the ring currently holds no items.
func (r *shardRing) empty() bool {
	pos := r.head.Load()
	return r.slots[pos&r.mask].seq.Load() != pos+1
}
