package stream

import (
	"fmt"
	"strings"
	"time"
)

// Tuple is one data item on a stream. Tuples are value types, but Values
// is shared storage: a holder that modifies or keeps tuples from
// borrowed storage copies them first (see Batch.Compact).
type Tuple struct {
	// Stream names the stream the tuple belongs to.
	Stream string
	// Seq is the source-assigned sequence number, unique per stream.
	Seq uint64
	// Ts is the event timestamp assigned by the source.
	Ts time.Time
	// Values holds the attribute values in schema order.
	Values []Value
	// Span is the tuple's trace-span ID; zero means the tuple is not
	// traced (the overwhelmingly common case). Sampled tuples keep
	// their span across relays and operator fragments so the
	// observability layer can reconstruct the full journey.
	Span uint64
}

// NewTuple constructs a tuple on the named stream.
func NewTuple(streamName string, seq uint64, ts time.Time, values ...Value) Tuple {
	return Tuple{Stream: streamName, Seq: seq, Ts: ts, Values: values}
}

// Value returns the i-th attribute, or an invalid Value when out of range.
// The pointer receiver keeps a per-row call from copying the whole tuple.
func (t *Tuple) Value(i int) Value {
	if i < 0 || i >= len(t.Values) {
		return Value{}
	}
	return t.Values[i]
}

// Size returns the tuple's encoded size in bytes. It is the unit of the
// communication-cost accounting throughout the system (the paper weighs
// query-graph edges in bytes/second).
func (t Tuple) Size() int {
	n := 4 + len(t.Stream) + 8 + 8 + 2 // stream, seq, ts(unixnano), nvalues
	for _, v := range t.Values {
		n += v.wireSize()
	}
	if t.Span != 0 {
		n += 8 // trace span, only present on sampled tuples
	}
	return n
}

// String renders the tuple compactly for logs and debugging.
func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s#%d[", t.Stream, t.Seq)
	for i, v := range t.Values {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(v.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Batch is a slice of tuples shipped as one message. Batching amortizes
// per-message transport overhead on high-rate streams.
type Batch []Tuple

// Size returns the total encoded size of the batch in bytes.
func (b Batch) Size() int {
	n := 4 // count prefix
	for _, t := range b {
		n += t.Size()
	}
	return n
}

// HasSpan reports whether any tuple of b is sampled, so a hop asks once
// per batch before its per-tuple trace.Record loop: an untraced batch —
// the overwhelmingly common case — skips the loop.
func (b Batch) HasSpan() bool {
	for i := range b {
		if b[i].Span != 0 {
			return true
		}
	}
	return false
}

// Compact clones the given rows of b — every row when rows is nil — into
// one Batch and one Values arena, both exactly sized: the clone shares no
// storage with b except string payloads (immutable) and pins nothing but
// what it holds. It is how tuples leave borrowed storage for a holder
// that may keep them.
func (b Batch) Compact(rows []int32) Batch {
	out, _ := b.compactInto(nil, nil, rows)
	return out
}

// compactInto is Compact into the storage of out and vals, which is
// reused from its start and replaced, exactly sized, only when short. It
// returns the clone and the arena its Values live in.
func (b Batch) compactInto(out Batch, vals []Value, rows []int32) (Batch, []Value) {
	n := len(rows)
	if rows == nil {
		n = len(b)
	}
	at := func(k int) *Tuple {
		if rows == nil {
			return &b[k]
		}
		return &b[rows[k]]
	}
	nvals := 0
	for k := 0; k < n; k++ {
		nvals += len(at(k).Values)
	}
	// Reserved up front, so no append below moves the arena under the
	// tuples already pointed into it.
	if cap(vals) < nvals {
		vals = make([]Value, 0, nvals)
	}
	vals = vals[:0]
	if cap(out) < n {
		out = make(Batch, n)
	}
	out = out[:n]
	for k := range out {
		t := *at(k)
		start := len(vals)
		vals = append(vals, t.Values...)
		t.Values = vals[start:len(vals):len(vals)]
		out[k] = t
	}
	return out, vals
}
