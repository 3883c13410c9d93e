package stream

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTupleRoundTrip(t *testing.T) {
	orig := NewTuple("quotes", 42, time.Unix(1000, 999).UTC(),
		String("ibm"), Float(90.25), Int(-7))
	enc := AppendTuple(nil, orig)
	dec, used, err := DecodeTuple(enc)
	if err != nil {
		t.Fatalf("DecodeTuple: %v", err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d bytes", used, len(enc))
	}
	assertTupleEqual(t, orig, dec)
}

func assertTupleEqual(t *testing.T, want, got Tuple) {
	t.Helper()
	if got.Stream != want.Stream || got.Seq != want.Seq || !got.Ts.Equal(want.Ts) {
		t.Fatalf("header mismatch: got %v/%d/%v want %v/%d/%v",
			got.Stream, got.Seq, got.Ts, want.Stream, want.Seq, want.Ts)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("arity %d != %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if !got.Values[i].Equal(want.Values[i]) {
			t.Fatalf("value %d: got %v want %v", i, got.Values[i], want.Values[i])
		}
	}
}

func TestTupleRoundTripEmptyValues(t *testing.T) {
	orig := NewTuple("s", 1, time.Unix(5, 0).UTC())
	dec, _, err := DecodeTuple(AppendTuple(nil, orig))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Values) != 0 {
		t.Fatalf("values = %v, want empty", dec.Values)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{
		NewTuple("a", 1, time.Unix(1, 0).UTC(), Int(1)),
		NewTuple("b", 2, time.Unix(2, 0).UTC(), String("x"), Float(2)),
	}
	enc := AppendBatch(nil, b)
	dec, used, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d", used, len(enc))
	}
	if len(dec) != 2 {
		t.Fatalf("decoded %d tuples", len(dec))
	}
	assertTupleEqual(t, b[0], dec[0])
	assertTupleEqual(t, b[1], dec[1])
}

func TestDecodeTupleTruncated(t *testing.T) {
	full := AppendTuple(nil, NewTuple("quotes", 1, time.Unix(1, 0).UTC(),
		String("ibm"), Float(1), Int(2)))
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeTuple(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(full))
		}
	}
}

func TestDecodeTupleBadKind(t *testing.T) {
	enc := AppendTuple(nil, NewTuple("s", 1, time.Unix(1, 0).UTC(), Int(7)))
	// Corrupt the value kind byte (last 9 bytes are kind + int payload).
	enc[len(enc)-9] = 0xFF
	if _, _, err := DecodeTuple(enc); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestDecodeBoundsChecks(t *testing.T) {
	// Absurd stream length must be rejected before allocation.
	var enc []byte
	enc = append(enc, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, _, err := DecodeTuple(enc); err == nil {
		t.Fatal("absurd stream length accepted")
	}
}

// Property: encode/decode round-trips arbitrary well-formed tuples.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(stream string, seq uint64, nanos int64, i int64, fl float64, s string) bool {
		if len(stream) > 1000 || len(s) > 1000 {
			return true
		}
		orig := NewTuple(stream, seq, time.Unix(0, nanos).UTC(),
			Int(i), Float(fl), String(s))
		enc := AppendTuple(nil, orig)
		if len(enc) != orig.Size() {
			return false
		}
		dec, used, err := DecodeTuple(enc)
		if err != nil || used != len(enc) {
			return false
		}
		if dec.Stream != orig.Stream || dec.Seq != orig.Seq || !dec.Ts.Equal(orig.Ts) {
			return false
		}
		for j := range orig.Values {
			if !dec.Values[j].Equal(orig.Values[j]) {
				// NaN floats don't compare equal; accept NaN payloads.
				if orig.Values[j].Kind() == KindFloat &&
					orig.Values[j].AsFloat() != orig.Values[j].AsFloat() &&
					dec.Values[j].AsFloat() != dec.Values[j].AsFloat() {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendTuple(b *testing.B) {
	tu := NewTuple("quotes", 1, time.Unix(1, 0), String("ibm"), Float(90.5), Int(100))
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendTuple(buf[:0], tu)
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	enc := AppendTuple(nil, NewTuple("quotes", 1, time.Unix(1, 0), String("ibm"), Float(90.5), Int(100)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// zipfQuotes returns n quotes whose symbols are zipf-distributed over 64
// names: the shape of the benchmark's quote stream.
func zipfQuotes(n int) Batch {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 63)
	b := make(Batch, n)
	for i := range b {
		b[i] = NewTuple("quotes", uint64(i+1), time.Unix(int64(i), 0),
			String(fmt.Sprintf("S%04d", zipf.Uint64())), Float(float64(rng.Intn(1000))), Int(int64(rng.Intn(1000))), Int(int64(i)))
	}
	return b
}

// BenchmarkDecodeBatch: the owned decode of one 64-quote frame through a
// warm buffer, as an entity processor decodes every frame it is sent.
// B/op and allocs/op are per frame: one Batch and one arena, against
// DecodeTuple's 1 + 3 per tuple when the batch decoder was a loop over it.
func BenchmarkDecodeBatch(b *testing.B) {
	enc := AppendBatch(nil, zipfQuotes(64))
	var d DecodeBuffer
	b.ReportAllocs()
	b.SetBytes(int64(len(enc)))
	for i := 0; i < b.N; i++ {
		if _, _, err := d.DecodeBatch(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeBatchOwnedAllocations: a warm buffer's owned decode costs one
// Batch and one arena whatever the tuple count, and the result is exactly
// sized, shares nothing with the buffer, and survives its reuse.
func TestDecodeBatchOwnedAllocations(t *testing.T) {
	var d DecodeBuffer
	for _, n := range []int{1, 8, 64} {
		orig := zipfQuotes(n)
		enc := AppendBatch(nil, orig)
		if _, _, err := d.DecodeBatch(enc); err != nil { // warm the intern table
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, _, err := d.DecodeBatch(enc); err != nil {
				t.Fatal(err)
			}
		}); got != 2 {
			t.Errorf("%d tuples: %v allocations per owned decode, want 2 (the Batch and the arena)", n, got)
		}
		dec, used, err := d.DecodeBatch(enc)
		if err != nil || used != len(enc) || len(dec) != n || cap(dec) != n {
			t.Fatalf("%d tuples: decoded %d (cap %d), used %d of %d, err %v", n, len(dec), cap(dec), used, len(enc), err)
		}
		if _, _, err := d.Decode(AppendBatch(nil, zipfQuotes(64)[n/2:])); err != nil { // reuse the buffer
			t.Fatal(err)
		}
		for i := range orig {
			assertTupleEqual(t, orig[i], dec[i])
			if cap(dec[i].Values) != len(dec[i].Values) {
				t.Fatalf("tuple %d can append into its neighbour's values", i)
			}
		}
		first, last := unsafe.Pointer(&dec[0].Values[0]), unsafe.Pointer(&dec[n-1].Values[0])
		if uintptr(last)-uintptr(first) != uintptr(n-1)*4*unsafe.Sizeof(Value{}) {
			t.Fatalf("%d tuples: values are not one arena", n)
		}
	}
	// Tuples of unlike shape: the reservation made for the first tuple's
	// shape overshoots, and the batch is compacted to what it holds.
	mixed := Batch{zipfQuotes(1)[0], NewTuple("trades", 1, time.Unix(1, 0), Int(1)), NewTuple("empty", 2, time.Unix(2, 0))}
	dec, _, err := d.DecodeBatch(AppendBatch(nil, mixed))
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixed {
		assertTupleEqual(t, mixed[i], dec[i])
		if cap(dec[i].Values) != len(dec[i].Values) {
			t.Fatalf("mixed tuple %d can append into its neighbour's values", i)
		}
	}
}

func TestTupleSpanRoundTrip(t *testing.T) {
	orig := NewTuple("quotes", 42, time.Unix(1000, 999).UTC(),
		String("ibm"), Float(90.25))
	orig.Span = 0xDEADBEEFCAFE
	enc := AppendTuple(nil, orig)
	if len(enc) != orig.Size() {
		t.Fatalf("encoded %d bytes, Size() says %d", len(enc), orig.Size())
	}
	dec, used, err := DecodeTuple(enc)
	if err != nil {
		t.Fatalf("DecodeTuple: %v", err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d bytes", used, len(enc))
	}
	assertTupleEqual(t, orig, dec)
	if dec.Span != orig.Span {
		t.Fatalf("span = %#x, want %#x", dec.Span, orig.Span)
	}
}

// TestUntracedTupleWireUnchanged pins the compatibility property: a
// tuple without a span encodes to exactly the pre-trace layout (no flag
// bit, no extra bytes), so byte accounting with sampling off matches the
// seed exactly.
func TestUntracedTupleWireUnchanged(t *testing.T) {
	orig := NewTuple("quotes", 7, time.Unix(9, 9).UTC(), Int(1))
	enc := AppendTuple(nil, orig)
	wantSize := 4 + len("quotes") + 8 + 8 + 2 + (1 + 8)
	if len(enc) != wantSize || orig.Size() != wantSize {
		t.Fatalf("untraced tuple: encoded=%d Size=%d want %d", len(enc), orig.Size(), wantSize)
	}
	// nvalues field must not carry the span flag.
	nvals := uint16(enc[4+len("quotes")+16]) | uint16(enc[4+len("quotes")+17])<<8
	if nvals != 1 {
		t.Fatalf("nvalues on the wire = %#x, want 1", nvals)
	}
	dec, _, err := DecodeTuple(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Span != 0 {
		t.Fatalf("span = %d, want 0", dec.Span)
	}
}

func TestBatchSpanRoundTrip(t *testing.T) {
	traced := NewTuple("s", 2, time.Unix(5, 0).UTC(), Int(4))
	traced.Span = 77
	b := Batch{NewTuple("s", 1, time.Unix(5, 0).UTC(), Int(3)), traced}
	enc := AppendBatch(nil, b)
	if len(enc) != b.Size() {
		t.Fatalf("encoded %d bytes, Size() says %d", len(enc), b.Size())
	}
	dec, _, err := DecodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].Span != 0 || dec[1].Span != 77 {
		t.Fatalf("spans = %d,%d want 0,77", dec[0].Span, dec[1].Span)
	}
}

// TestDecodeBatchCorruptCountClamped proves a corrupt count header cannot
// preallocate gigabytes: capacity stays bounded by what the buffer could
// physically hold, and the decode fails fast on the missing tuples.
func TestDecodeBatchCorruptCountClamped(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32(nil, 1<<24-1) // huge count, no body
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := DecodeBatch(payload); err == nil {
			t.Fatal("want error for truncated batch")
		}
	})
	// The clamp makes the header-only prealloc tiny: a handful of
	// allocations, not a 16M-entry Batch.
	if allocs > 8 {
		t.Fatalf("corrupt header cost %.0f allocs per decode, want a small constant", allocs)
	}
	if got := clampBatchCap(1<<24, 0); got != 1 {
		t.Fatalf("clampBatchCap(1<<24, 0) = %d, want 1", got)
	}
	if got := clampBatchCap(3, 1<<20); got != 3 {
		t.Fatalf("clampBatchCap must not clamp plausible counts: got %d, want 3", got)
	}
}

// TestDecodeBufferRoundTrip checks the pooled arena decoder agrees with
// DecodeBatch, including trace spans and string interning.
func TestDecodeBufferRoundTrip(t *testing.T) {
	b := Batch{
		NewTuple("quotes", 1, time.Unix(1, 0).UTC(), String("ibm"), Float(90.25), Int(-7)),
		NewTuple("quotes", 2, time.Unix(2, 5).UTC(), String("ibm"), Float(91), Int(3)),
		NewTuple("quotes", 3, time.Unix(3, 0).UTC()),
	}
	b[1].Span = 77
	enc := AppendBatch(nil, b)
	d := GetDecodeBuffer()
	defer PutDecodeBuffer(d)
	dec, used, err := d.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(enc) {
		t.Fatalf("consumed %d of %d", used, len(enc))
	}
	if len(dec) != len(b) {
		t.Fatalf("decoded %d tuples, want %d", len(dec), len(b))
	}
	for i := range b {
		assertTupleEqual(t, b[i], dec[i])
		if dec[i].Span != b[i].Span {
			t.Fatalf("tuple %d span = %d, want %d", i, dec[i].Span, b[i].Span)
		}
	}
	// Interning: both tuples must share one stream-name string and one
	// "ibm" value string.
	if unsafe.StringData(dec[0].Stream) != unsafe.StringData(dec[1].Stream) {
		t.Fatal("stream names not interned")
	}
	if unsafe.StringData(dec[0].Values[0].AsString()) != unsafe.StringData(dec[1].Values[0].AsString()) {
		t.Fatal("string values not interned")
	}
}

// TestDecodeBufferZeroAllocsSteadyState is the hot-path regression guard:
// after warmup, decoding the same-shaped traffic allocates nothing.
func TestDecodeBufferZeroAllocsSteadyState(t *testing.T) {
	b := make(Batch, 0, 64)
	for i := 0; i < 64; i++ {
		b = append(b, NewTuple("quotes", uint64(i), time.Unix(int64(i), 0).UTC(),
			String("ibm"), Float(float64(i)), Int(int64(i))))
	}
	enc := AppendBatch(nil, b)
	d := GetDecodeBuffer()
	defer PutDecodeBuffer(d)
	if _, _, err := d.Decode(enc); err != nil { // warmup: grows arena, interns strings
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := d.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decode allocated %.1f times per run, want 0", allocs)
	}
}

// TestDecodeBufferCorruptInput mirrors the DecodeBatch error cases.
func TestDecodeBufferCorruptInput(t *testing.T) {
	d := GetDecodeBuffer()
	defer PutDecodeBuffer(d)
	if _, _, err := d.Decode(nil); err == nil {
		t.Fatal("want error for empty buffer")
	}
	enc := AppendBatch(nil, Batch{NewTuple("s", 1, time.Unix(0, 0).UTC(), Int(1))})
	if _, _, err := d.Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("want error for truncated tuple")
	}
	// The buffer stays usable after an error.
	if _, _, err := d.Decode(enc); err != nil {
		t.Fatalf("decode after error: %v", err)
	}
}

// DecodeTuple decodes one tuple (owned) from the front of buf, returning
// the tuple and the number of bytes consumed: a batch of one without the
// count header, and without an intern table to fill for one tuple.
func DecodeTuple(buf []byte) (Tuple, int, error) {
	d := DecodeBuffer{left: 1}
	var t Tuple
	used, err := d.decodeTuple(buf, &t)
	if err != nil {
		return Tuple{}, 0, err
	}
	t.Values = d.vals[:len(d.vals):len(d.vals)]
	return t, used, nil
}
