package stream

import (
	"math"
	"sync"
	"sync/atomic"
)

// Leased batches. A Lease is a Batch plus the Values arena its tuples
// point into, taken from one process-wide pool and shared by reference
// count: whoever fills it holds the first reference, every holder that
// keeps the rows past a call takes one more (Retain), and the last
// Release puts the arena back in the pool for the next batch. It is how
// an engine keeps its one copy of a batch it is lent without allocating
// one (engine.GroupFeeder's FeedGroupLent): the copy lives until the last
// shard that reads it is done, and the storage is then reused instead of
// collected.
//
// A lease is only for rows nobody keeps: a holder that keeps a tuple
// past its Release must copy it first (Batch.Compact). Strings are never
// in the arena — a Value holds a Go string, which is immutable — so a
// Value copied out of a leased row stays valid; a Values slice does not.
//
// Build with -tags arenapoison to overwrite every arena when its last
// holder releases it, so a row read after its Release shows up as a
// "\x00released" value instead of silently reading a later batch.
type Lease struct {
	refs atomic.Int32
	b    Batch
	vals []Value
}

var leasePool = sync.Pool{New: func() any { return new(Lease) }}

// getLease takes an empty arena from the pool, held once by the caller.
func getLease() *Lease {
	l := leasePool.Get().(*Lease)
	l.refs.Store(1)
	return l
}

// LeaseCopy copies b — tuples and Values; strings are shared, being
// immutable — into a pooled arena and returns it held once by the
// caller. b is only read. A warm pool makes the copy allocate nothing.
func LeaseCopy(b Batch) *Lease {
	l := getLease()
	l.b, l.vals = b.compactInto(l.b, l.vals, nil)
	return l
}

// DecodeLease is the leased form of Decode: it decodes a batch from the
// front of buf into a pooled arena and returns it held once by the
// caller, with the bytes consumed. The buffer keeps only its intern
// table, as with DecodeBatch (any borrowed Batch it had returned becomes
// invalid); with a warm pool and table, decoding allocates nothing.
func (d *DecodeBuffer) DecodeLease(buf []byte) (*Lease, int, error) {
	l := getLease()
	d.tuples, d.vals = l.b[:0], l.vals[:0]
	used, err := d.decodeBatch(buf)
	l.b, l.vals = d.tuples, d.vals
	d.tuples, d.vals = nil, nil
	if err != nil {
		l.Release()
		return nil, 0, err
	}
	return l, used, nil
}

// Batch returns the leased rows. They are read-only for everyone, and
// valid until the caller's reference is released.
func (l *Lease) Batch() Batch { return l.b }

// Retain takes one more reference for a holder that reads the rows after
// the call that handed it them returns. The caller must hold one already.
func (l *Lease) Retain() { l.refs.Add(1) }

// Release drops one reference. The last one returns the arena to the
// pool; after it no holder may read the rows.
func (l *Lease) Release() {
	switch n := l.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic("stream: lease released more often than it was held")
	}
	if poisonArenas {
		Poison(l.vals[:cap(l.vals)])
		for i := range l.b {
			l.b[i] = Tuple{Stream: "\x00released", Seq: math.MaxUint64, Values: l.vals[:0]}
		}
	}
	leasePool.Put(l)
}

// Poison overwrites vals with "\x00released" under -tags arenapoison, as
// the last Release of a lease does its arena, and does nothing in a
// shipped build. A holder that lends storage it reuses — a tail's result
// slab — poisons it when the loan ends, so a reader that kept it fails
// loudly instead of reading what comes next.
func Poison(vals []Value) {
	if !poisonArenas {
		return
	}
	for i := range vals {
		vals[i] = String("\x00released")
	}
}
