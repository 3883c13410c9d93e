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
// an intra-entity frame) or out of a checkpoint, so the decoder must
// answer any bytes with a value or an error: no panic, and nothing sized
// from a count it has not checked against the bytes that are left.

// batchSeeds are valid encoded batches, one per shape the decoder treats
// differently.
func batchSeeds() [][]byte {
	ts := time.Unix(1754000000, 123).UTC()
	traced := NewTuple("quotes", 7, ts, String("ibm"), Float(90.25), Int(-7))
	traced.Span = 0xDEADBEEF
	untraced := NewTuple("quotes", 8, ts, String("hp"), Float(60.5), Int(3))
	long := NewTuple("quotes", 9, ts, String(strings.Repeat("x", maxInternedValueLen+1)), Float(1), Int(1))
	return [][]byte{
		AppendBatch(nil, Batch{untraced}),
		AppendBatch(nil, Batch{traced, untraced, traced}),
		AppendBatch(nil, nil), // an empty batch
		AppendBatch(nil, Batch{untraced, NewTuple("trades", 1, ts, String("hp"), Int(5)), NewTuple("", 0, ts), traced}), // mixed streams and shapes
		AppendBatch(nil, Batch{long, long}), // past the intern bound
	}
}

func FuzzDecodeBatch(f *testing.F) {
	for _, seed := range batchSeeds() {
		f.Add(seed)
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<24))   // the largest count, no body
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<24+1)) // over the bound
	f.Fuzz(func(t *testing.T, buf []byte) {
		// One buffer, borrowed form first, so the owned decode runs on the
		// intern table the borrowed one filled — and must not disturb it.
		var d DecodeBuffer
		borrowed, usedB, errB := d.Decode(buf)
		encB := AppendBatch(nil, borrowed)
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
		if encO := AppendBatch(nil, owned); !bytes.Equal(encO, buf[:usedO]) || !bytes.Equal(encB, encO) {
			t.Fatalf("%x decoded (owned) to %x, (borrowed) to %x", buf[:usedO], encO, encB)
		}
		// The owned batch is the caller's: reusing the buffer leaves it be.
		if _, _, err := d.Decode(batchSeeds()[3]); err != nil {
			t.Fatal(err)
		}
		if encO := AppendBatch(nil, owned); !bytes.Equal(encO, buf[:usedO]) {
			t.Fatalf("the owned batch changed when its buffer was reused: %x, was %x", encO, buf[:usedO])
		}
		for i := range owned {
			if cap(owned[i].Values) != len(owned[i].Values) {
				t.Fatalf("owned tuple %d can append into its neighbour's values", i)
			}
		}
	})
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
