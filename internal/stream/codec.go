package stream

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"
)

// unixNano converts unix nanoseconds into a time.Time in UTC so decoded
// tuples compare equal across machines regardless of local zone.
func unixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// Binary tuple codec used by the TCP transport. The format is a simple
// length-delimited little-endian layout matching Tuple.Size exactly, so
// the simulated and real transports account identical byte counts:
//
//	uint32 len(stream) | stream bytes
//	uint64 seq
//	int64  ts (unix nanoseconds)
//	uint16 nvalues (top bit: trace span present)
//	per value: uint8 kind, then 8-byte payload (int/float)
//	           or uint32 len + bytes (string)
//	uint64 span (only when the nvalues top bit is set)
//
// A traced tuple (Span != 0) sets the top bit of nvalues and appends its
// span after the values; untraced tuples encode exactly as before, so
// enabling the codec's trace support costs zero wire bytes until
// sampling actually marks a tuple. The encoding is canonical — a tuple
// has one — so a flagged zero span does not decode.

const maxWireString = 1 << 20 // sanity bound when decoding

// wireSpanFlag marks a trailing trace-span word in the nvalues field.
// Schemas are bounded far below 2^15 attributes, so the bit is free.
const wireSpanFlag = 0x8000

// AppendTuple encodes t onto dst and returns the extended slice.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(t.Stream)))
	dst = append(dst, t.Stream...)
	dst = binary.LittleEndian.AppendUint64(dst, t.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t.Ts.UnixNano()))
	nvals := uint16(len(t.Values))
	if t.Span != 0 {
		nvals |= wireSpanFlag
	}
	dst = binary.LittleEndian.AppendUint16(dst, nvals)
	for _, v := range t.Values {
		dst = append(dst, byte(v.kind))
		switch v.kind {
		case KindInt, KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, v.n)
		case KindString:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.s)))
			dst = append(dst, v.s...)
		}
	}
	if t.Span != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, t.Span)
	}
	return dst
}

// AppendBatch encodes a batch (count prefix then each tuple).
func AppendBatch(dst []byte, b Batch) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	for _, t := range b {
		dst = AppendTuple(dst, t)
	}
	return dst
}

// minTupleWire is the smallest possible encoded tuple: empty stream name,
// seq, ts, and a zero-value count with no span. minValueWire is the
// smallest encoded value: a kind byte and an empty string's length.
const (
	minTupleWire = 4 + 8 + 8 + 2
	minValueWire = 1 + 4
)

// clampBatchCap bounds a wire-declared batch count by what the remaining
// buffer could physically hold, so a corrupt 4-byte header is an error —
// a count the clamp cuts — before it has sized anything.
func clampBatchCap(n, remaining int) int {
	if maxFit := remaining/minTupleWire + 1; n > maxFit {
		return maxFit
	}
	return n
}

// --- Decoding ------------------------------------------------------------
//
// There is one tuple decoder (DecodeBuffer.decodeTuple) and it writes into
// a DecodeBuffer: tuples into one Batch, every tuple's values into one
// flat arena, stream names and short string values through an intern
// table. Who owns what it wrote is the only difference between the three
// ways to call it:
//
//   - Borrowed — DecodeBuffer.Decode. The Batch, its Values and nothing
//     else live in the buffer's reusable storage and are valid only until
//     the next call on the same buffer (or until it goes back to the
//     pool); steady-state decoding allocates nothing. For a caller that is
//     done with the tuples when it returns: the relay (it re-encodes for
//     its children and lends its local matches to the entity for the
//     length of one call, in which the entity's engine makes its own
//     copy).
//   - Leased — DecodeBuffer.DecodeLease. The Batch and its Values live in
//     a pooled arena shared by reference count (Lease), which goes back
//     to the pool when the last holder releases it; with a warm pool
//     decoding allocates nothing. For a caller whose holders are done
//     with the rows when they release them: an entity processor decoding
//     an ent.feedb frame whose fragments all seal their results (its
//     engine says so: engine.GroupFeeder's Seals), for an engine that
//     releases each batch once its shard has run it.
//   - Owned — DecodeBuffer.DecodeBatch, DecodeBatch. The
//     result is the caller's for good: one fresh Batch and one fresh arena
//     per call, whatever the tuple count; the buffer keeps only its intern
//     table between calls. For a caller that hands the tuples to someone
//     who keeps them: an entity processor decoding an intra-entity frame
//     for its engine (through the processor's own buffer, so the table is
//     warm), an operator restoring a window (through a fresh one).
//
// Interned strings outlive all three: Go strings are immutable, so a
// tuple may keep one after the buffer, the table or the arena is gone.

// maxInternedValueLen bounds which strings are interned; longer ones are
// assumed unique payloads not worth caching.
const maxInternedValueLen = 64

// maxInternedValues bounds the intern table so adversarial or
// high-cardinality streams cannot grow it without limit.
const maxInternedValues = 1 << 15

// DecodeBuffer is what the tuple decoder writes into. Not safe for
// concurrent use: get one per goroutine via GetDecodeBuffer, or guard a
// long-lived one with a lock. The zero value is ready.
type DecodeBuffer struct {
	tuples Batch
	vals   []Value // arena shared by every tuple's Values
	starts []int   // vals offset where each tuple's values begin
	left   int     // tuples of the batch not decoded yet
	name   string  // the stream name of the last tuple decoded
	// strs interns stream names and short string values, so a steady
	// stream's strings are allocated once per buffer, not once per tuple.
	// Nil until the buffer decodes its first batch.
	strs map[string]string
}

// intern returns a stable string for a stream name or a string value,
// allocating only the first time a short one is seen while the table has
// room.
func (d *DecodeBuffer) intern(b []byte) string {
	if d.strs == nil || len(b) > maxInternedValueLen {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok { // compiler elides the conversion
		return s
	}
	s := string(b)
	if len(d.strs) < maxInternedValues {
		d.strs[s] = s
	}
	return s
}

// Decode decodes a batch from the front of buf into the buffer's
// reusable storage, returning the batch and bytes consumed. The returned
// Batch is borrowed (see the contract above). On error the buffer's
// contents are unspecified but the buffer remains usable.
func (d *DecodeBuffer) Decode(buf []byte) (Batch, int, error) {
	d.tuples, d.vals = d.tuples[:0], d.vals[:0]
	used, err := d.decodeBatch(buf)
	if err != nil {
		return nil, 0, err
	}
	return d.tuples, used, nil
}

// DecodeBatch is the owned form of Decode: the returned Batch and its
// Values are fresh storage the caller keeps, and the buffer keeps only
// its intern table (any borrowed Batch it had returned becomes invalid).
func (d *DecodeBuffer) DecodeBatch(buf []byte) (Batch, int, error) {
	d.tuples, d.vals = nil, nil
	used, err := d.decodeBatch(buf)
	b, vals := d.tuples, d.vals
	d.tuples, d.vals = nil, nil
	if err != nil {
		return nil, 0, err
	}
	if cap(vals) > len(vals) {
		// Tuples of unlike shape (a mixed-stream batch) made the arena's
		// reservation overshoot; what the caller keeps pins no slack.
		b = b.Compact(nil)
	}
	return b, used, nil
}

// DecodeBatch decodes a batch from the front of buf, returning the batch
// (owned) and bytes consumed, through a fresh buffer: for cold callers.
func DecodeBatch(buf []byte) (Batch, int, error) {
	return new(DecodeBuffer).DecodeBatch(buf)
}

// decodeBatch appends a batch's tuples to d.tuples and d.vals.
func (d *DecodeBuffer) decodeBatch(buf []byte) (int, error) {
	d.starts = d.starts[:0]
	if len(buf) < 4 {
		return 0, fmt.Errorf("stream: truncated batch header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	off := 4
	if n > 1<<24 {
		return 0, fmt.Errorf("stream: batch count %d exceeds bound", n)
	}
	if clampBatchCap(n, len(buf)-off) < n {
		// More tuples than the bytes left could hold: refused before
		// anything is sized from the count.
		return 0, fmt.Errorf("stream: truncated batch (%d tuples in %d bytes)", n, len(buf)-off)
	}
	if cap(d.tuples) < n {
		d.tuples = make(Batch, 0, n)
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	for d.left = n; d.left > 0; d.left-- {
		d.starts = append(d.starts, len(d.vals))
		d.tuples = append(d.tuples, Tuple{})
		used, err := d.decodeTuple(buf[off:], &d.tuples[len(d.tuples)-1])
		if err != nil {
			return 0, fmt.Errorf("stream: batch tuple %d: %w", n-d.left, err)
		}
		off += used
	}
	// The arena may have been reallocated while the batch was decoded, so
	// tuples are sliced out of its final backing array only now; the
	// three-index slice keeps them from appending into each other's tails.
	for i := range d.tuples {
		s := d.starts[i]
		e := len(d.vals)
		if i+1 < len(d.tuples) {
			e = d.starts[i+1]
		}
		d.tuples[i].Values = d.vals[s:e:e]
	}
	return off, nil
}

// decodeTuple is the tuple decoder: it decodes one tuple from the front
// of buf into t, appending its values to the arena — the caller slices
// t.Values out of it — and interning its strings, and returns the bytes
// consumed.
func (d *DecodeBuffer) decodeTuple(buf []byte, t *Tuple) (int, error) {
	off := 0
	need := func(n int) error {
		if len(buf)-off < n {
			return fmt.Errorf("stream: truncated tuple (need %d bytes at offset %d, have %d)",
				n, off, len(buf)-off)
		}
		return nil
	}
	if err := need(4); err != nil {
		return 0, err
	}
	slen := int(binary.LittleEndian.Uint32(buf[off:]))
	off += 4
	if slen > maxWireString {
		return 0, fmt.Errorf("stream: stream name length %d exceeds bound", slen)
	}
	if err := need(slen + 8 + 8 + 2); err != nil {
		return 0, err
	}
	if d.name != string(buf[off:off+slen]) { // a run of one stream's tuples probes nothing
		d.name = d.intern(buf[off : off+slen])
	}
	t.Stream = d.name
	off += slen
	t.Seq = binary.LittleEndian.Uint64(buf[off:])
	off += 8
	t.Ts = unixNano(int64(binary.LittleEndian.Uint64(buf[off:])))
	off += 8
	rawVals := binary.LittleEndian.Uint16(buf[off:])
	off += 2
	hasSpan := rawVals&wireSpanFlag != 0
	nvals := int(rawVals &^ uint16(wireSpanFlag))
	if len(d.vals)+nvals > cap(d.vals) {
		// The arena is short: reserve for the rest of the batch as if
		// every tuple left looked like this one — the whole arena, once,
		// for a batch of one stream. Clamped by what the bytes left could
		// hold, like the tuple count, so no header sizes anything unchecked.
		room := min(nvals*d.left, (len(buf)-off)/minValueWire)
		d.vals = append(make([]Value, 0, len(d.vals)+room), d.vals...)
	}
	vals := d.vals
	for i := 0; i < nvals; i++ {
		if err := need(1); err != nil {
			return 0, err
		}
		kind := Kind(buf[off])
		off++
		switch kind {
		case KindInt, KindFloat:
			if err := need(8); err != nil {
				return 0, err
			}
			vals = append(vals, Value{kind: kind, n: binary.LittleEndian.Uint64(buf[off:])})
			off += 8
		case KindString:
			if err := need(4); err != nil {
				return 0, err
			}
			n := int(binary.LittleEndian.Uint32(buf[off:]))
			off += 4
			if n > maxWireString {
				return 0, fmt.Errorf("stream: string value length %d exceeds bound", n)
			}
			if err := need(n); err != nil {
				return 0, err
			}
			vals = append(vals, String(d.intern(buf[off:off+n])))
			off += n
		default:
			return 0, fmt.Errorf("stream: unknown value kind %d", kind)
		}
	}
	if hasSpan {
		if err := need(8); err != nil {
			return 0, err
		}
		if t.Span = binary.LittleEndian.Uint64(buf[off:]); t.Span == 0 {
			// No encoder writes it (span 0 is "untraced", flag clear), and
			// accepting it would give one tuple two encodings.
			return 0, fmt.Errorf("stream: span flag set on a zero span")
		}
		off += 8
	}
	d.vals = vals
	return off, nil
}

var decodeBufPool = sync.Pool{New: func() any { return new(DecodeBuffer) }}

// GetDecodeBuffer returns a DecodeBuffer from a process-wide pool.
func GetDecodeBuffer() *DecodeBuffer { return decodeBufPool.Get().(*DecodeBuffer) }

// PutDecodeBuffer returns a buffer to the pool. Any Batch previously
// returned by its Decode becomes invalid.
func PutDecodeBuffer(d *DecodeBuffer) {
	if d != nil {
		decodeBufPool.Put(d)
	}
}

var encodeBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetEncodeBuffer returns a pooled byte buffer (length 0) for use with
// AppendBatch/AppendTuple on the hot path.
func GetEncodeBuffer() *[]byte { return encodeBufPool.Get().(*[]byte) }

// PutEncodeBuffer returns a buffer to the pool. Nobody may still read a
// payload sliced from it, so a pooled buffer is only ever lent to a
// transport (simnet.Transport's Send, which copies it or writes it out
// before returning), never handed over (simnet.Hand, whose transport may
// keep the slice). Built with -tags arenapoison, the buffer's bytes are
// overwritten here, as Lease does for arenas, so a delivery that still
// holds them fails to decode instead of reading a later batch.
func PutEncodeBuffer(b *[]byte) {
	if b == nil {
		return
	}
	if poisonArenas {
		for i := range *b {
			(*b)[i] = 0xff
		}
	}
	*b = (*b)[:0]
	encodeBufPool.Put(b)
}
