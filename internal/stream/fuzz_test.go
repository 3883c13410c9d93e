package stream

import (
	"bytes"
	"encoding/binary"
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
