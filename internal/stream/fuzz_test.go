package stream

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The tuple codec's fuzzer. A batch comes off the network (a relay link,
// an intra-entity frame: both frames) or out of a checkpoint (the row
// form), so the decoder must answer any bytes with a value or an error:
// no panic, and nothing sized from a count it has not checked against
// the bytes that are left. What decodes re-encodes, in the form it came
// in, to the bytes it was decoded from.

// appendRows encodes b in the row form — a count, then each tuple — as
// operator state and checkpoints hold it.
func appendRows(dst []byte, b Batch) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	for _, t := range b {
		dst = AppendTuple(dst, t)
	}
	return dst
}

// reencode encodes b in the form buf, which decoded to it, holds.
func reencode(buf []byte, b Batch) []byte {
	if binary.LittleEndian.Uint32(buf)&frameFlag != 0 {
		return AppendBatch(nil, b)
	}
	return appendRows(nil, b)
}

// batchSeeds are valid encoded batches, one per shape the decoder treats
// differently, as frames and then in the row form.
func batchSeeds() [][]byte {
	ts := time.Unix(1754000000, 123).UTC()
	traced := NewTuple("quotes", 7, ts, String("ibm"), Float(90.25), Int(-7))
	traced.Span = 0xDEADBEEF
	untraced := NewTuple("quotes", 8, ts, String("hp"), Float(60.5), Int(3))
	long := NewTuple("quotes", 9, ts, String(strings.Repeat("x", maxInternedValueLen+1)), Float(1), Int(1))
	early := NewTuple("quotes", 2, time.Unix(-5, 0).UTC(), String("ibm"), String("quotes"))
	batches := []Batch{
		{untraced},
		{traced, untraced, traced},
		nil, // an empty batch
		{untraced, NewTuple("trades", 1, ts, String("hp"), Int(5)), NewTuple("", 0, ts), traced}, // mixed streams and shapes
		{long, long},           // past the intern bound
		{untraced, early},      // seq and ts going back; a value naming a stream
		benchQuotes(8),         // a published batch, shortened
		benchQuotes(64)[20:23], // a child's frame
	}
	var seeds [][]byte
	for _, b := range batches {
		seeds = append(seeds, AppendBatch(nil, b))
	}
	for _, b := range batches {
		seeds = append(seeds, appendRows(nil, b))
	}
	return seeds
}

// mixedSeed is the frame of mixed streams and shapes among batchSeeds.
const mixedSeed = 3

func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	for _, seed := range malformedFrames() {
		f.Add(seed.frame)
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<24))             // the largest count, no body
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<24+1))           // over the bound
	f.Add(binary.LittleEndian.AppendUint32(nil, frameFlag|1<<24))   // a frame of the largest count, no body
	f.Add(binary.LittleEndian.AppendUint32(nil, frameFlag|1<<24+1)) // over the bound
	f.Fuzz(func(t *testing.T, buf []byte) {
		// One buffer, borrowed form first, so the owned decode runs on the
		// intern table and the dictionary the borrowed one filled — and
		// must not disturb them.
		var d DecodeBuffer
		borrowed, usedB, errB := d.Decode(buf)
		var encB []byte
		if errB == nil {
			encB = reencode(buf, borrowed)
		}
		owned, usedO, errO := d.DecodeBatch(buf)
		if (errB == nil) != (errO == nil) {
			t.Fatalf("borrowed decode: %v; owned decode: %v", errB, errO)
		}
		if errO != nil {
			return
		}
		if usedB != usedO || len(borrowed) != len(owned) {
			t.Fatalf("borrowed decode: %d tuples in %d bytes; owned: %d in %d", len(borrowed), usedB, len(owned), usedO)
		}
		// What decodes re-encodes to exactly the bytes it was decoded
		// from: tuples, values (NaN payloads included) and spans agree
		// between the two forms, and with the wire.
		if encO := reencode(buf, owned); !bytes.Equal(encO, buf[:usedO]) || !bytes.Equal(encB, encO) {
			t.Fatalf("%x decoded (owned) to %x, (borrowed) to %x", buf[:usedO], encO, encB)
		}
		// The owned batch is the caller's: reusing the buffer leaves it be.
		if _, _, err := d.Decode(batchSeeds()[mixedSeed]); err != nil {
			t.Fatal(err)
		}
		if encO := reencode(buf, owned); !bytes.Equal(encO, buf[:usedO]) {
			t.Fatalf("the owned batch changed when its buffer was reused: %x, was %x", encO, buf[:usedO])
		}
		for i := range owned {
			if cap(owned[i].Values) != len(owned[i].Values) {
				t.Fatalf("owned tuple %d can append into its neighbour's values", i)
			}
		}
	})
}

// frameBytes builds a frame by hand: its count word, its dictionary,
// then row bytes as given.
func frameBytes(n uint32, dict []string, rows ...byte) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, frameFlag|n)
	buf = binary.AppendUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		buf = appendWireString(buf, s)
	}
	return append(buf, rows...)
}

type malformedFrame struct {
	name  string
	frame []byte
}

// malformedFrames are frames no batch encodes to, each a step away from
// a valid one.
func malformedFrames() []malformedFrame {
	const str = byte(KindString)
	// A row of stream id sid, a zigzag seq delta, a zero ts delta and
	// one value: the string of dictionary id id.
	row := func(sid, seq, id byte) []byte { return []byte{sid, seq, 0, 1 << 1, str, id} }
	return []malformedFrame{
		{"an unused dictionary entry", frameBytes(1, []string{"s", "x", "y"}, row(0, 2, 1)...)},
		{"entries out of first-use order", frameBytes(1, []string{"x", "s"}, row(1, 2, 0)...)},
		{"an id past the dictionary", frameBytes(1, []string{"s", "x"}, row(0, 2, 2)...)},
		{"a repeated entry", frameBytes(1, []string{"s", "s"}, row(0, 2, 1)...)},
		{"a repeated entry past the scanned ones", frameBytes(1, []string{"s", "a", "b", "c", "d", "e", "f", "g", "h", "s"},
			0, 2, 0, 9<<1, str, 1, str, 2, str, 3, str, 4, str, 5, str, 6, str, 7, str, 8, str, 9)},
		{"an overlong varint", frameBytes(1, []string{"s", "x"}, 0, 0x82, 0x00, 0, 1<<1, str, 1)},
		{"an overlong dictionary count", append(binary.LittleEndian.AppendUint32(nil, frameFlag|1), 0x80, 0x00)},
		{"a row count the bytes cannot hold", frameBytes(1<<20, []string{"s", "x"}, row(0, 2, 1)...)},
		{"a dictionary count the bytes cannot hold", binary.AppendUvarint(binary.LittleEndian.AppendUint32(nil, frameFlag|1), 1<<40)},
		{"a string length the bytes cannot hold", append(binary.LittleEndian.AppendUint32(nil, frameFlag|1), 1, 5, 's', 0, 2, 0, 0)},
		{"a value count the bytes cannot hold", frameBytes(1, []string{"s"}, 0, 2, 0, 0xfe, 0xff, 0x03)},
		{"a flagged zero span", frameBytes(1, []string{"s"}, append([]byte{0, 2, 0, 1}, make([]byte, 8)...)...)},
		{"an unknown value kind", frameBytes(1, []string{"s"}, 0, 2, 0, 1<<1, 0xee, 0)},
	}
}

// TestDecodeFrameMalformed: a frame one step from a valid one — the
// valid one decodes — is an error, not a second encoding of a batch.
func TestDecodeFrameMalformed(t *testing.T) {
	valid := frameBytes(1, []string{"s", "x"}, 0, 2, 0, 1<<1, byte(KindString), 1)
	b, used, err := DecodeBatch(valid)
	if err != nil || used != len(valid) || len(b) != 1 || b[0].String() != "s#1[x]" {
		t.Fatalf("%x: decoded %v from %d bytes: %v", valid, b, used, err)
	}
	if enc := AppendBatch(nil, b); !bytes.Equal(enc, valid) {
		t.Fatalf("%x re-encodes to %x", valid, enc)
	}
	var d DecodeBuffer
	for _, m := range malformedFrames() {
		if b, _, err := d.Decode(m.frame); err == nil {
			t.Errorf("%s: %x decoded to %v", m.name, m.frame, b)
		}
	}
}

// TestDecodeBatchTruncated: every proper prefix of a valid batch is an
// error from both decoders, and the whole of it is not.
func TestDecodeBatchTruncated(t *testing.T) {
	var d DecodeBuffer
	for i, full := range batchSeeds() {
		for cut := 0; cut < len(full); cut++ {
			if _, _, err := d.Decode(full[:cut]); err == nil {
				t.Fatalf("seed %d cut to %d of %d bytes decoded (borrowed)", i, cut, len(full))
			}
			if _, _, err := d.DecodeBatch(full[:cut]); err == nil {
				t.Fatalf("seed %d cut to %d of %d bytes decoded (owned)", i, cut, len(full))
			}
			if _, _, err := DecodeBatch(full[:cut]); err == nil {
				t.Fatalf("seed %d cut to %d of %d bytes decoded (owned, fresh buffer)", i, cut, len(full))
			}
		}
		if _, used, err := d.DecodeBatch(full); err != nil || used != len(full) {
			t.Fatalf("seed %d: used %d of %d bytes, err %v", i, used, len(full), err)
		}
	}
}

// TestDecodeFlaggedZeroSpan: the span flag over a zero span is not an
// encoding any tuple has.
func TestDecodeFlaggedZeroSpan(t *testing.T) {
	tu := NewTuple("s", 1, time.Unix(1, 0).UTC(), Int(1))
	tu.Span = 1
	enc := AppendTuple(nil, tu)
	clear(enc[len(enc)-8:])
	if _, _, err := DecodeTuple(enc); err == nil {
		t.Fatal("a flagged zero span decoded")
	}
}

// The interest codec's fuzzer. A registration comes off the network from
// a child relay, so DecodeInterestSet answers any bytes with a set or an
// error, sizes nothing from a count it has not checked against the bytes
// left, and accepts only the one encoding a set has.

// interestSeeds are valid encoded sets, one per shape the decoder treats
// differently.
func interestSeeds() [][]byte {
	set := func(terms ...Interest) []byte {
		s := NewInterestSet("quotes")
		for _, in := range terms {
			s.Add(in)
		}
		return AppendInterestSet(nil, s)
	}
	q := NewInterest("quotes")
	return [][]byte{
		set(q.WithRange("price", 5, 10), q.WithRange("volume", 0, 1e6).WithRange("price", 60, 50)),    // ranges only
		set(q.WithKeys("symbol", "ibm", "hp"), q.WithKeys("symbol", "a").WithKeys("venue", "x", "y")), // keys only
		set(q.WithRange("price", 5, 10).WithKeys("symbol", "a", "b").WithRange("symbol", 0, 1)),       // both
		set(q.WithKeys("symbol")), // an empty key set
		set(q),                    // an unconstrained term
		set(),                     // an empty set
	}
}

func FuzzDecodeInterestSet(f *testing.F) {
	for _, seed := range interestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		set, err := DecodeInterestSet(buf)
		if err != nil {
			return
		}
		if cap(set.Terms) > len(buf)/minTermWire {
			t.Fatalf("%d bytes sized %d terms", len(buf), cap(set.Terms))
		}
		if enc := AppendInterestSet(nil, set); !bytes.Equal(enc, buf) {
			t.Fatalf("%x decoded to %v, which encodes to %x", buf, set.Terms, enc)
		}
	})
}

// TestDecodeInterestSet: a set round-trips to an equal set, and a proper
// prefix of one, a trailing byte, a count larger than the bytes left, an
// overlong varint and fields out of order are errors.
func TestDecodeInterestSet(t *testing.T) {
	for i, full := range interestSeeds() {
		if _, err := DecodeInterestSet(full); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeInterestSet(full[:cut]); err == nil {
				t.Fatalf("seed %d cut to %d of %d bytes decoded", i, cut, len(full))
			}
		}
		if _, err := DecodeInterestSet(append(full[:len(full):len(full)], 0)); err == nil {
			t.Fatalf("seed %d with a trailing byte decoded", i)
		}
	}
	in := NewInterest("quotes").WithRange("price", 5, 10).WithKeys("symbol", "b", "a").WithKeys("venue")
	set := NewInterestSet("quotes")
	set.Add(in)
	set.Add(NewInterest("quotes"))
	got, err := DecodeInterestSet(AppendInterestSet(nil, set))
	if err != nil || !reflect.DeepEqual(got, set) {
		t.Fatalf("decoded %v (%v), want %v", got, err, set)
	}
	huge := binary.AppendUvarint(appendWireString(nil, "quotes"), 1<<62) // terms, no bytes
	if _, err := DecodeInterestSet(huge); err == nil {
		t.Fatal("a count of 2^62 terms in 8 bytes decoded")
	}
	overlong := append(appendWireString(nil, "quotes"), 0x80, 0x00) // zero terms, two bytes
	if _, err := DecodeInterestSet(overlong); err == nil {
		t.Fatal("an overlong varint decoded")
	}
	swapped := appendWireString(nil, "quotes")
	swapped = binary.AppendUvarint(swapped, 1)    // one term
	swapped = binary.AppendUvarint(swapped, 0)    // no ranges
	swapped = binary.AppendUvarint(swapped, 1)    // one key set
	swapped = appendWireString(swapped, "symbol") //
	swapped = binary.AppendUvarint(swapped, 2)    // two keys
	swapped = appendWireString(appendWireString(swapped, "b"), "a")
	if _, err := DecodeInterestSet(swapped); err == nil {
		t.Fatal("keys out of order decoded")
	}
}
