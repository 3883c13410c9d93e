package stream

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// unixNano converts unix nanoseconds into a time.Time in UTC so decoded
// tuples compare equal across machines regardless of local zone.
func unixNano(n int64) time.Time { return time.Unix(0, n).UTC() }

// The tuple codec has two forms, both little-endian, told apart by the
// top bit of the leading count word.
//
// The row form is one tuple after another, each standing alone; it is
// what AppendTuple writes and what an operator's snapshot and a
// checkpoint hold (a count word, then AppendTuple rows; Tuple.Size is a
// row's length):
//
//	uint32 len(stream) | stream bytes
//	uint64 seq
//	int64  ts (unix nanoseconds)
//	uint16 nvalues (top bit: trace span present)
//	per value: uint8 kind, then 8-byte payload (int/float)
//	           or uint32 len + bytes (string)
//	uint64 span (only when the nvalues top bit is set)
//
// The frame is a batch on the wire — every link (relay hops,
// intra-entity frames, TCP) carries frames, written by AppendBatch and
// AppendBatchRows. It writes once what the batch's rows share: each
// distinct string (stream names and string values) in a dictionary,
// and seq and ts as deltas from the row before. Counts, lengths, ids
// and deltas are varints (deltas zigzag-coded):
//
//	uint32 nrows | 1<<31
//	dictionary: count | per string, in order of first use: length, bytes
//	per row: stream id
//	         seq - previous row's seq, ts - previous row's ts (the
//	         first row's from 0)
//	         nvalues<<1 | span present
//	         per value: uint8 kind, then 8-byte payload (int/float)
//	                    or dictionary id (string)
//	         uint64 span (when present)
//
// A row-form count is at most 1<<24, so a row-form batch is never read
// as a frame, and the decoder reads both. Both forms are canonical: a
// batch has one encoding, and the decoder accepts only it. A traced
// tuple (Span != 0) flags its span word and an untraced one carries
// none, so a flagged zero span does not decode; a frame's dictionary
// holds each string once, every one used, in order of first use, and
// its varints are minimal. Nothing crosses frames: each decodes alone,
// so loss, reordering, duplication and reconnects need nothing of the
// codec.

const maxWireString = 1 << 20 // sanity bound when decoding

// wireSpanFlag marks a trailing trace-span word in the nvalues field.
// Schemas are bounded far below 2^15 attributes, so the bit is free.
const wireSpanFlag = 0x8000

// frameFlag marks a frame's count word; maxBatchCount bounds either
// form's count.
const (
	frameFlag     = 1 << 31
	maxBatchCount = 1 << 24
)

// AppendTuple encodes t in the row form onto dst and returns the
// extended slice.
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

// AppendBatch encodes b as one frame onto dst and returns the extended
// slice.
func AppendBatch(dst []byte, b Batch) []byte { return AppendBatchRows(dst, b, nil) }

// AppendBatchRows encodes the given rows of b — every row when rows is
// nil — as one frame onto dst, so a caller that sends part of a batch
// encodes it without gathering the part first. b is only read.
func AppendBatchRows(dst []byte, b Batch, rows []int32) []byte {
	n := len(rows)
	if rows == nil {
		n = len(b)
	}
	// A small frame — a few strings, a few rows — is encoded in arrays on
	// the stack; one that outgrows them takes a pooled scratch.
	var small [scanStrs]string
	var smallRows [smallFrameRows]byte
	strs, out := small[:0], smallRows[:0]
	var sc *frameScratch
	var seq uint64
	var ts int64
	stream, streamID := "", uint64(0)
	for k := 0; k < n; k++ {
		t := &b[k]
		if rows != nil {
			t = &b[rows[k]]
		}
		if k == 0 || t.Stream != stream { // a run of one stream's rows looks up nothing
			stream = t.Stream
			strs, streamID = frameID(strs, &sc, t.Stream)
		}
		// Room for the row's longest encoding: the row section leaves the
		// stack for the scratch before an append would move it.
		if need := maxFrameRowHead + maxFrameValue*len(t.Values) + 8; cap(out)-len(out) < need {
			out = takeScratch(&sc).growRows(out, need)
		}
		out = appendUvarint(out, streamID)
		out = appendUvarint(out, zigzag(int64(t.Seq-seq)))
		nanos := t.Ts.UnixNano()
		out = appendUvarint(out, zigzag(nanos-ts))
		seq, ts = t.Seq, nanos
		flags := uint64(len(t.Values)) << 1
		if t.Span != 0 {
			flags |= 1
		}
		out = appendUvarint(out, flags)
		for j := range t.Values {
			v := &t.Values[j]
			out = append(out, byte(v.kind))
			switch v.kind {
			case KindInt, KindFloat:
				out = binary.LittleEndian.AppendUint64(out, v.n)
			case KindString:
				var id uint64
				strs, id = frameID(strs, &sc, v.s)
				out = appendUvarint(out, id)
			}
		}
		if t.Span != 0 {
			out = binary.LittleEndian.AppendUint64(out, t.Span)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n)|frameFlag)
	dst = appendUvarint(dst, uint64(len(strs)))
	for _, s := range strs {
		dst = appendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	dst = append(dst, out...)
	if sc != nil {
		sc.release()
	}
	return dst
}

// The longest encodings of a frame row's leading varints (a 32-bit
// stream id, two 64-bit deltas and a flags word) and of a value (a kind
// byte and 8 bytes; a string's 32-bit id is shorter), and the row
// section a frame encodes on the stack.
const (
	maxFrameRowHead = 5 + 10 + 10 + 10
	maxFrameValue   = 1 + 8
	smallFrameRows  = 256
)

// frameID returns a frame's dictionary, strs, with s added at its first
// use, and s's id in it. Once there are too many strings to scan they
// are found by the index of the frame's pooled scratch, *sc, taken then.
func frameID(strs []string, sc **frameScratch, s string) ([]string, uint64) {
	if len(strs) < scanStrs {
		for id, t := range strs {
			if t == s {
				return strs, uint64(id)
			}
		}
		return append(strs, s), uint64(len(strs))
	}
	f := takeScratch(sc)
	if len(f.strs) != len(strs) { // the dictionary moves off the stack
		f.strs = append(f.strs[:0], strs...)
	}
	id, seen := f.index.find(f.strs, s)
	if !seen {
		f.strs = append(f.strs, s)
	}
	return f.strs, uint64(id)
}

// takeScratch returns a frame's pooled scratch, *sc, taking it at first
// use.
func takeScratch(sc **frameScratch) *frameScratch {
	if *sc == nil {
		*sc = frameScratchPool.Get().(*frameScratch)
		(*sc).index.reset()
		(*sc).strs = (*sc).strs[:0]
	}
	return *sc
}

// frameScratch is what a frame too large for the stack encodes in: its
// dictionary, the index that finds a string in it, and its row section,
// written before the dictionary is complete and copied after it.
type frameScratch struct {
	strs  []string
	index strIndex
	rows  []byte
}

var frameScratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

// maxPooledFrame bounds the row section a pooled scratch keeps.
const maxPooledFrame = 1 << 16

// growRows moves the row section so far into the scratch's, with room
// for need more bytes, and returns it.
func (sc *frameScratch) growRows(out []byte, need int) []byte {
	sc.rows = slices.Grow(append(sc.rows[:0], out...), need)
	return sc.rows
}

// release puts the scratch back in the pool, pinning no caller's string.
func (sc *frameScratch) release() {
	clear(sc.strs)
	if cap(sc.rows) > maxPooledFrame {
		sc.rows = nil
	}
	frameScratchPool.Put(sc)
}

// strIndex numbers a frame's distinct strings in order of first use,
// which the caller keeps in a list. A short list is scanned; a longer
// one is indexed by an open-addressed table of ids into it, emptied per
// frame by a new generation, not cleared or reallocated. The table holds
// no pointers, so it pins no string and costs the collector nothing.
type strIndex struct {
	gen   uint32
	n     uint32    // strings of the list indexed in this generation
	slots []strSlot // len a power of two; a slot of an older gen is empty
}

// scanStrs is the longest list scanned rather than indexed: a child's
// frame of a few rows holds a few strings.
const scanStrs = 8

type strSlot struct {
	key     strKey
	gen, id uint32
}

// strKey is what a strIndex compares first. A string of up to 16 bytes
// is its key — two overlapping little-endian words cover every byte, and
// the length tells the overlap — so finding one compares two words, not
// the bytes; a longer one's key is its hash, and its bytes are compared
// too.
type strKey struct {
	a, b uint64
	n    uint32
}

var (
	strSeed  = maphash.MakeSeed()
	strSeedA = maphash.String(strSeed, "a")
	strSeedB = maphash.String(strSeed, "b")
)

func keyOf(s string) strKey {
	n := uint32(len(s))
	switch {
	case n > 16:
		return strKey{a: maphash.String(strSeed, s), n: n}
	case n >= 8:
		return strKey{le64(s), le64(s[n-8:]), n}
	case n >= 4:
		return strKey{uint64(le32(s)), uint64(le32(s[n-4:])), n}
	case n > 0:
		return strKey{a: uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1]), n: n}
	}
	return strKey{}
}

// hash mixes a key under a per-process seed.
func (k strKey) hash() uint32 {
	hi, lo := bits.Mul64(k.a^strSeedA, k.b^strSeedB^uint64(k.n))
	return uint32(hi ^ lo)
}

func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint32 {
	_ = s[3]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// reset empties the index for the next frame.
func (x *strIndex) reset() {
	x.n = 0
	if x.gen++; x.gen == 0 {
		clear(x.slots)
		x.gen = 1
	}
}

// lookup returns the id of s among strs, the frame's strings so far, and
// true; or, when s is not among them, returns len(strs) — the id of the
// caller's next string, which must be s — and false. x may be nil while
// strs is shorter than scanStrs.
func (x *strIndex) lookup(strs []string, s string) (uint32, bool) {
	if len(strs) < scanStrs {
		for id, t := range strs {
			if t == s {
				return uint32(id), true
			}
		}
		return uint32(len(strs)), false
	}
	return x.find(strs, s)
}

// find is lookup by the table, for a list of at least scanStrs strings.
func (x *strIndex) find(strs []string, s string) (uint32, bool) {
	next := uint32(len(strs))
	if 2*(next+1) > uint32(len(x.slots)) {
		x.grow()
	}
	for x.n < next { // the strings added while the list was scanned
		x.find(strs[:x.n], strs[x.n])
	}
	var k strKey
	if n := len(s); n >= 4 && n <= 8 { // keyOf's commonest case, inline
		k = strKey{uint64(le32(s)), uint64(le32(s[n-4:])), uint32(n)}
	} else {
		k = keyOf(s)
	}
	mask := uint32(len(x.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.gen != x.gen {
			*sl = strSlot{key: k, gen: x.gen, id: next}
			x.n++
			return next, false
		}
		if sl.key == k && (k.n <= 16 || strs[sl.id] == s) {
			return sl.id, true
		}
	}
}

// grow doubles the table, keeping it no more than half full.
func (x *strIndex) grow() {
	old := x.slots
	x.slots = make([]strSlot, max(16, 2*len(old)))
	mask := uint32(len(x.slots) - 1)
	for _, sl := range old {
		if sl.gen != x.gen {
			continue
		}
		i := sl.key.hash() & mask
		for x.slots[i].gen == x.gen {
			i = (i + 1) & mask
		}
		x.slots[i] = sl
	}
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendUvarint is binary.AppendUvarint with the one-byte case inline:
// a frame's ids, deltas and counts are mostly under 128.
func appendUvarint(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

// readUvarint reads a minimally encoded uvarint from the front of buf
// and returns it and its length; a length of 0 means buf holds none.
func readUvarint(buf []byte) (uint64, int) {
	if len(buf) > 0 && buf[0] < 0x80 {
		return uint64(buf[0]), 1
	}
	v, n := binary.Uvarint(buf)
	if n <= 0 || buf[n-1] == 0 { // a zero last byte makes a varint overlong
		return 0, 0
	}
	return v, n
}

// Smallest encodings, which bound each count by the bytes left before
// anything is sized from it. A row-form tuple: an empty stream name,
// seq, ts, and a zero-value count with no span; a row-form value: a kind
// byte and an empty string's length. A frame row: a stream id, two
// deltas and a flags word of one byte each; a frame value: a kind byte
// and a one-byte string id.
const (
	minTupleWire      = 4 + 8 + 8 + 2
	minValueWire      = 1 + 4
	minFrameRowWire   = 4
	minFrameValueWire = 2
)

// clampBatchCap bounds a wire-declared batch count by what the remaining
// buffer could physically hold, at minWire bytes a tuple, so a corrupt
// header is an error — a count the clamp cuts — before it has sized
// anything.
func clampBatchCap(n, remaining, minWire int) int {
	if maxFit := remaining/minWire + 1; n > maxFit {
		return maxFit
	}
	return n
}

// --- Decoding ------------------------------------------------------------
//
// There is one batch decoder (DecodeBuffer.decodeBatch), which reads a
// frame row by row (decodeFrame) and a row-form batch tuple by tuple
// (decodeTuple), and it writes into a DecodeBuffer: tuples into one
// Batch, every tuple's values into one flat arena, and strings through
// an intern table — a frame's once per dictionary entry, a row-form
// batch's once per occurrence. Who owns what it wrote is the only
// difference between the three ways to call it:
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
//     an ent.feedb frame none of whose fragments keeps rows (none is a
//     join; its engine says so: engine.GroupFeeder's Seals), for an
//     engine that releases each batch once its shard has run it.
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

// DecodeBuffer is what the batch decoder writes into. Not safe for
// concurrent use: get one per goroutine via GetDecodeBuffer, or guard a
// long-lived one with a lock. The zero value is ready.
type DecodeBuffer struct {
	tuples Batch
	vals   []Value // arena shared by every tuple's Values
	starts []int   // vals offset where each tuple's values begin
	left   int     // tuples of the batch not decoded yet
	name   string  // the stream name of the last row-form tuple decoded
	// strs interns stream names and short string values, so a steady
	// stream's strings are allocated once per buffer, not once per tuple.
	// Nil until the buffer decodes its first batch.
	strs map[string]string
	// dict is the last frame's dictionary: a frame resolves its ids here,
	// and an entry equal to the one at its index in the frame before is
	// taken from it without an intern probe. index finds a frame's
	// entries by content, so a repeated one is refused.
	dict  []string
	index strIndex
	long  bool // dict holds a string too long to intern
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

// decodeBatch appends a batch's tuples, in either form, to d.tuples and
// d.vals.
func (d *DecodeBuffer) decodeBatch(buf []byte) (int, error) {
	d.starts = d.starts[:0]
	if len(buf) < 4 {
		return 0, fmt.Errorf("stream: truncated batch header")
	}
	word := binary.LittleEndian.Uint32(buf)
	frame := word&frameFlag != 0
	n := int(word &^ frameFlag)
	if n > maxBatchCount {
		return 0, fmt.Errorf("stream: batch count %d exceeds bound", n)
	}
	minWire := minTupleWire
	if frame {
		minWire = minFrameRowWire
	}
	if clampBatchCap(n, len(buf)-4, minWire) < n {
		// More tuples than the bytes left could hold: refused before
		// anything is sized from the count.
		return 0, fmt.Errorf("stream: truncated batch (%d tuples in %d bytes)", n, len(buf)-4)
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	var off int
	var err error
	if frame {
		off, err = d.decodeFrame(buf, n)
	} else {
		off, err = d.decodeRows(buf, n)
	}
	if err != nil {
		return 0, err
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

// nextTuple appends a zero tuple to the batch being decoded and returns
// it, noting where its values will begin.
func (d *DecodeBuffer) nextTuple(n int) *Tuple {
	if cap(d.tuples) < n {
		d.tuples = make(Batch, 0, n)
	}
	d.starts = append(d.starts, len(d.vals))
	d.tuples = append(d.tuples, Tuple{})
	return &d.tuples[len(d.tuples)-1]
}

// reserve makes room in the arena for a tuple of nvals values when it is
// short: for the rest of the batch as if every tuple left looked like
// this one — the whole arena, once, for a batch of one stream. Clamped by
// what the bytes left could hold, at minWire bytes a value, like the
// tuple count, so no header sizes anything unchecked.
func (d *DecodeBuffer) reserve(nvals, bytesLeft, minWire int) {
	if len(d.vals)+nvals > cap(d.vals) {
		room := min(nvals*d.left, bytesLeft/minWire)
		d.vals = append(make([]Value, 0, len(d.vals)+room), d.vals...)
	}
}

// decodeRows decodes a row-form batch of n tuples after its count word.
func (d *DecodeBuffer) decodeRows(buf []byte, n int) (int, error) {
	off := 4
	for d.left = n; d.left > 0; d.left-- {
		used, err := d.decodeTuple(buf[off:], d.nextTuple(n))
		if err != nil {
			return 0, fmt.Errorf("stream: batch tuple %d: %w", n-d.left, err)
		}
		off += used
	}
	return off, nil
}

// decodeTuple is the row form's tuple decoder: it decodes one tuple from
// the front of buf into t, appending its values to the arena — the
// caller slices t.Values out of it — and interning its strings, and
// returns the bytes consumed.
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
	d.reserve(nvals, len(buf)-off, minValueWire)
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

// decodeFrame decodes a frame of n rows after its count word: the
// dictionary, then the rows, which resolve their strings in it.
func (d *DecodeBuffer) decodeFrame(buf []byte, n int) (int, error) {
	off, nd, err := d.decodeDict(buf)
	if err != nil {
		return 0, err
	}
	defer d.dropLong(nd)
	// used counts the entries referred to so far: ids are first used in
	// order, so a new one must be the next, and every one must be used.
	used := 0
	var seq uint64
	var ts int64
	var stamp time.Time
	for d.left = n; d.left > 0; d.left-- {
		t := d.nextTuple(n)
		// The row's four leading varints: stream id, seq delta, ts delta,
		// flags. A row of one stream stamped like its predecessor has
		// four one-byte varints, read as one word.
		var w [4]uint64
		if len(buf)-off >= 4 && binary.LittleEndian.Uint32(buf[off:])&0x80808080 == 0 {
			w = [4]uint64{uint64(buf[off]), uint64(buf[off+1]), uint64(buf[off+2]), uint64(buf[off+3])}
			off += 4
		} else {
			for i := range w {
				v, k := readUvarint(buf[off:])
				if k == 0 {
					return 0, fmt.Errorf("stream: frame: bad varint at offset %d", off)
				}
				w[i] = v
				off += k
			}
		}
		if !useID(w[0], &used, nd) {
			return 0, badID(w[0], used, nd)
		}
		t.Stream = d.dict[w[0]]
		seq += uint64(unzigzag(w[1]))
		if w[2] != 0 || d.left == n {
			ts += unzigzag(w[2])
			stamp = unixNano(ts)
		}
		t.Seq, t.Ts = seq, stamp
		if w[3]>>1 > uint64(len(buf)-off)/minFrameValueWire {
			return 0, fmt.Errorf("stream: frame: %d values in %d bytes", w[3]>>1, len(buf)-off)
		}
		nvals := int(w[3] >> 1)
		d.reserve(nvals, len(buf)-off, minFrameValueWire)
		for i := 0; i < nvals; i++ {
			if off >= len(buf) {
				return 0, fmt.Errorf("stream: frame: truncated value at offset %d", off)
			}
			kind := Kind(buf[off])
			off++
			switch kind {
			case KindInt, KindFloat:
				if len(buf)-off < 8 {
					return 0, fmt.Errorf("stream: frame: truncated value at offset %d", off)
				}
				d.vals = append(d.vals, Value{kind: kind, n: binary.LittleEndian.Uint64(buf[off:])})
				off += 8
			case KindString:
				id, k := uint64(0), 0
				if off < len(buf) && buf[off] < 0x80 {
					id, k = uint64(buf[off]), 1
				} else if id, k = readUvarint(buf[off:]); k == 0 {
					return 0, fmt.Errorf("stream: frame: bad string id at offset %d", off)
				}
				off += k
				if !useID(id, &used, nd) {
					return 0, badID(id, used, nd)
				}
				d.vals = append(d.vals, Value{kind: KindString, s: d.dict[id]})
			default:
				return 0, fmt.Errorf("stream: frame: unknown value kind %d", kind)
			}
		}
		if w[3]&1 != 0 {
			if len(buf)-off < 8 {
				return 0, fmt.Errorf("stream: frame: truncated span at offset %d", off)
			}
			if t.Span = binary.LittleEndian.Uint64(buf[off:]); t.Span == 0 {
				return 0, fmt.Errorf("stream: frame: span flag set on a zero span")
			}
			off += 8
		}
	}
	if used != nd {
		return 0, fmt.Errorf("stream: frame: %d of %d dictionary strings unused", nd-used, nd)
	}
	return off, nil
}

// useID reports whether a frame of nd dictionary strings, used of which
// its rows have referred to so far, may refer to id next, and counts id
// when it is the first use of the next one.
func useID(id uint64, used *int, nd int) bool {
	if id < uint64(*used) {
		return true
	}
	if id == uint64(*used) && *used < nd {
		*used++
		return true
	}
	return false
}

func badID(id uint64, used, nd int) error {
	if id >= uint64(nd) {
		return fmt.Errorf("stream: frame: string id %d past a dictionary of %d", id, nd)
	}
	return fmt.Errorf("stream: frame: string id %d used before id %d", id, used)
}

// decodeDict reads a frame's dictionary into d.dict and returns the
// offset past it and its length. An entry is interned unless the last
// frame's dictionary held it at the same index, and one already in the
// dictionary is an error.
func (d *DecodeBuffer) decodeDict(buf []byte) (int, int, error) {
	off := 4
	v, k := readUvarint(buf[off:])
	if k == 0 {
		return 0, 0, fmt.Errorf("stream: frame: bad dictionary count")
	}
	off += k
	if v > uint64(len(buf)-off) { // an entry is at least its length byte
		return 0, 0, fmt.Errorf("stream: frame: %d dictionary strings in %d bytes", v, len(buf)-off)
	}
	nd := int(v)
	if len(d.dict) < nd {
		d.dict = append(d.dict, make([]string, nd-len(d.dict))...)
	}
	d.index.reset()
	for i := 0; i < nd; i++ {
		l, k := readUvarint(buf[off:])
		if k == 0 || l > uint64(len(buf)-off-k) {
			d.dropLong(i)
			return 0, 0, fmt.Errorf("stream: frame: truncated dictionary string %d", i)
		}
		off += k
		b := buf[off : off+int(l)]
		off += int(l)
		if d.dict[i] != string(b) {
			d.dict[i] = d.intern(b)
		}
		d.long = d.long || len(b) > maxInternedValueLen
		if _, seen := d.index.lookup(d.dict[:i], d.dict[i]); seen {
			d.dropLong(i + 1)
			return 0, 0, fmt.Errorf("stream: frame: dictionary string %d repeats one before it", i)
		}
	}
	return off, nd, nil
}

// dropLong empties the first n dictionary entries of strings too long
// to intern once their frame is decoded: payloads like that are not
// worth keeping for the next frame.
func (d *DecodeBuffer) dropLong(n int) {
	if !d.long {
		return
	}
	d.long = false
	for i, s := range d.dict[:n] {
		if len(s) > maxInternedValueLen {
			d.dict[i] = ""
		}
	}
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
