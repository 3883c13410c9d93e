package entity

import (
	"encoding/binary"
	"reflect"
	"testing"

	"sspd/internal/stream"
)

// The fuzzer for the addressed frame (ent.feedb) processors exchange
// inside an entity; an ent.ingest frame is a bare batch, which the
// codec's FuzzDecodeBatch covers. A frame comes off the network, so a
// decoder must answer any bytes with
// a value or an error: no panic, and no allocation sized from a count or
// length it has not checked against the bytes that are left.

func feedBatchSeeds() [][]byte {
	b := stream.Batch{quote(1, "ibm", 50, 1), quote(2, "hp", 60.5, 7)}
	return [][]byte{
		encodeFeedBatch(nil, []string{"q1#0"}, b),
		encodeFeedBatch(nil, []string{"q1#0", "q2#0", "a-much-longer-fragment-id#0@r1"}, b),
		encodeFeedBatch(nil, []string{""}, b[:1]),
		encodeFeedBatch(nil, nil, b),
		encodeFeedBatch(nil, []string{"q"}, nil),
	}
}

func FuzzDecodeFeedBatch(f *testing.F) {
	for _, seed := range feedBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		// One decoder for both frames, as a processor keeps one for every
		// frame it is sent: the second decode runs on a warm intern table.
		dec := new(frameDecoder)
		frags, b, _, err := dec.decodeFeedBatch(payload, nil)
		if err != nil {
			return
		}
		// What decoded must survive a round trip.
		frags2, b2, _, err := dec.decodeFeedBatch(encodeFeedBatch(nil, frags, b), nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(frags2) != len(frags) || (len(frags) > 0 && !reflect.DeepEqual(frags2, frags)) {
			t.Fatalf("fragment ids %q round-tripped to %q", frags, frags2)
		}
		if len(b2) != len(b) {
			t.Fatalf("batch of %d round-tripped to %d", len(b), len(b2))
		}
	})
}

// TestDecodeFeedFramesTruncated: every proper prefix of a valid frame is
// an error, and so is a count or length that promises more than the
// frame holds — including the largest ones a uint16 can claim.
func TestDecodeFeedFramesTruncated(t *testing.T) {
	dec := new(frameDecoder)
	for _, frame := range feedBatchSeeds() {
		for cut := 0; cut < len(frame); cut++ {
			if _, _, _, err := dec.decodeFeedBatch(frame[:cut], nil); err == nil {
				t.Fatalf("feed-batch frame cut to %d of %d bytes decoded", cut, len(frame))
			}
		}
	}
	huge := binary.LittleEndian.AppendUint16(nil, 0xFFFF) // 65535 fragments, no bytes
	if _, _, _, err := dec.decodeFeedBatch(huge, nil); err == nil {
		t.Fatal("a count of 65535 fragments in a 2-byte frame decoded")
	}
	huge = binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint16(nil, 1), 0xFFFF)
	if _, _, _, err := dec.decodeFeedBatch(append(huge, "short"...), nil); err == nil {
		t.Fatal("a 65535-byte fragment id in a 9-byte frame decoded")
	}
}

// TestDecodeFeedFramesReuseIDs: a processor decodes every frame addressed
// to the same fragments into one id list — the list the engine's grouped
// feed has resolved before — however frames addressed otherwise
// interleave with them, and those into their own ids.
func TestDecodeFeedFramesReuseIDs(t *testing.T) {
	b := stream.Batch{quote(1, "ibm", 50, 1)}
	ab := encodeFeedBatch(nil, []string{"a#0", "b#0"}, b)
	c := encodeFeedBatch(nil, []string{"c#0"}, b)
	dec := new(frameDecoder)
	first, _, _, err := dec.decodeFeedBatch(ab, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range [][]byte{ab, c, ab} {
		got, _, _, err := dec.decodeFeedBatch(frame, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if !reflect.DeepEqual(got, []string{"c#0"}) {
				t.Fatalf("decoded ids %q, want [c#0]", got)
			}
		} else if &got[0] != &first[0] {
			t.Fatalf("frame %d: an ID section decoded before decoded into a new list", i)
		}
	}
	if !reflect.DeepEqual(first, []string{"a#0", "b#0"}) {
		t.Fatalf("a returned list changed under its holder: %q", first)
	}
}
