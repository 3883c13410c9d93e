package operator

import "sspd/internal/stream"

// Shared machinery of the stateful tail (Distinct, Aggregate, TopK).
//
// Each tail operator has one insert function — the only way a tuple
// enters its window and derived index, used by the batch entry, by the
// one-row Process wrapper over it, and by RestoreState's replay — and
// one batch entry, ProcessBatch: rows in, results appended to a
// caller-owned buffer, one Stats.RecordBatch per call. Nothing here or
// in the operators reads the clock (lint-obslog): the shard times a
// whole (query, batch) run between two stamps it takes at query
// boundaries.

// beats orders values for every maximum and ranking in the tail: a
// number beats any smaller number, and every number beats NaN. NaN
// neither beats nor is beaten by NaN, and 0 ties with -0. So NaN never
// wins a maximum (or, negated, a minimum) while a number is in the
// window, and ranks below every number in top-k.
func beats(a, b float64) bool { return a > b || (a == a && b != b) }

// maxDeque is one group's sliding-window maximum under the window's
// FIFO eviction: a monotonic deque of (insertion ordinal, value). A
// push drops every entry the new value beats — they can never be the
// maximum again, the new entry outlives them — so values never increase
// front to back and the front is the maximum; among equal values the
// oldest stays in front, which is the one a scan of the window oldest
// to newest would report. Entries are addressed by the operator's own
// insertion ordinal (Tuple.Seq need be neither dense nor unique): the
// window evicts in insertion order, so the tuple leaving is the front
// entry or one that was dropped earlier.
type maxDeque struct {
	buf  []maxEnt // ring; the length is zero or a power of two
	head int
	n    int
}

type maxEnt struct {
	ord uint64
	val float64
}

func (d *maxDeque) push(ord uint64, v float64) {
	for d.n > 0 && beats(v, d.buf[(d.head+d.n-1)&(len(d.buf)-1)].val) {
		d.n--
	}
	if d.n == len(d.buf) {
		grown := make([]maxEnt, max(4, 2*len(d.buf)))
		for i := 0; i < d.n; i++ {
			grown[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
		}
		d.buf, d.head = grown, 0
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = maxEnt{ord, v}
	d.n++
}

// evict removes the entry inserted as ord if it is still held, and
// reports whether it was. The group has left the window when n is 0.
func (d *maxDeque) evict(ord uint64) bool {
	if d.n == 0 || d.buf[d.head].ord != ord {
		return false
	}
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return true
}

// max returns the maximum; the deque must not be empty.
func (d *maxDeque) max() float64 { return d.buf[d.head].val }

// reuse pops a state cell — a group's, a key's — off the free list that
// cells of groups and keys leaving the window go to, or allocates one.
func reuse[T any](free *[]*T) *T {
	if n := len(*free); n > 0 {
		c := (*free)[n-1]
		*free = (*free)[:n-1]
		return c
	}
	return new(T)
}

// sealValues gives a batch's results their Values. staged holds width
// values per result, collected in a buffer the operator reuses; they are
// copied into one slab allocated here, exactly sized, and each result
// is pointed at its stride. The slab is never reused: results escape to
// user callbacks, which may keep them.
func sealValues(results []stream.Tuple, staged []stream.Value, width int) {
	if len(results) == 0 {
		return
	}
	slab := make([]stream.Value, len(staged))
	copy(slab, staged)
	for i := range results {
		results[i].Values = slab[i*width : (i+1)*width : (i+1)*width]
	}
}

// sealRows is sealValues for rows that already hold their Values, in the
// storage of the batch they came from (a sealed Distinct's survivors):
// the Values are copied into one slab allocated here, exactly sized.
func sealRows(rows []stream.Tuple) {
	n := 0
	for i := range rows {
		n += len(rows[i].Values)
	}
	if n == 0 {
		return
	}
	slab := make([]stream.Value, 0, n)
	for i := range rows {
		start := len(slab)
		slab = append(slab, rows[i].Values...)
		rows[i].Values = slab[start:len(slab):len(slab)]
	}
}
