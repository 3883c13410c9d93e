package stream

import (
	"reflect"
	"testing"
	"time"
)

// TestLeaseCopyIsIndependent: a leased copy holds what the batch held,
// and shares no Values with it — writing either leaves the other as it
// was — even for a mixed-shape batch and for an arena reused from the
// pool with room to spare.
func TestLeaseCopyIsIndependent(t *testing.T) {
	mixed := append(zipfQuotes(8), NewTuple("trades", 9, time.Unix(9, 0).UTC(), String("ibm"), Int(5)))
	for round := 0; round < 3; round++ {
		src := mixed.Compact(nil)
		l := LeaseCopy(src)
		got := l.Batch()
		if !reflect.DeepEqual(got, mixed) {
			t.Fatalf("round %d: leased copy %v, want %v", round, got, mixed)
		}
		for i := range src {
			src[i].Values[0] = Int(-1)
		}
		if !reflect.DeepEqual(got, mixed) {
			t.Fatalf("round %d: writing the source changed the leased copy", round)
		}
		l.Release()
	}
}

// TestDecodeLeaseMatchesOwned: the leased decode is the owned decode into
// a pooled arena, tuple for tuple, and leaves the buffer usable.
func TestDecodeLeaseMatchesOwned(t *testing.T) {
	var d DecodeBuffer
	for _, b := range []Batch{zipfQuotes(64), zipfQuotes(3), nil} {
		enc := AppendBatch(nil, b)
		owned, usedO, err := d.DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		l, usedL, err := d.DecodeLease(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.Batch(); usedL != usedO || len(got) != len(owned) || len(got) > 0 && !reflect.DeepEqual(got, owned) {
			t.Fatalf("leased decode %v (%d bytes), owned %v (%d bytes)", l.Batch(), usedL, owned, usedO)
		}
		l.Release()
	}
	if _, _, err := d.DecodeLease(AppendBatch(nil, zipfQuotes(4))[:9]); err == nil {
		t.Fatal("a truncated batch decoded into a lease")
	}
}

// TestLeaseReleasedOnce: the last Release of the references taken returns
// the arena; one more is a bug, and says so.
func TestLeaseReleasedOnce(t *testing.T) {
	l := LeaseCopy(zipfQuotes(2))
	l.Retain()
	l.Release()
	if got := l.Batch(); len(got) != 2 || got[0].Seq != 1 {
		t.Fatalf("a lease still held lost its rows: %v", got)
	}
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a third Release of a lease held twice did not panic")
		}
	}()
	l.Release()
}

// TestLeasePoisonedOnLastRelease: built with -tags arenapoison, the last
// Release overwrites the arena, so a row read after it is visibly wrong.
func TestLeasePoisonedOnLastRelease(t *testing.T) {
	if !poisonArenas {
		t.Skip("arena poisoning is off; run with -tags arenapoison")
	}
	l := LeaseCopy(zipfQuotes(4))
	rows := l.Batch()
	kept := rows[1].Values // a holder that kept a slice past its Release
	l.Retain()
	l.Release()
	if rows[1].Values[0].AsString() == "\x00released" {
		t.Fatal("the arena was poisoned while a reference was still held")
	}
	l.Release()
	if kept[0].AsString() != "\x00released" || rows[0].Stream != "\x00released" {
		t.Fatalf("after the last Release the rows read %v and %v, want the poison", rows[0], kept)
	}
}

// TestEncodeBufferPoisonedOnPut: built with -tags arenapoison,
// PutEncodeBuffer overwrites the bytes it pools, so a payload still held
// past the Put no longer decodes.
func TestEncodeBufferPoisonedOnPut(t *testing.T) {
	if !poisonArenas {
		t.Skip("arena poisoning is off; run with -tags arenapoison")
	}
	buf := GetEncodeBuffer()
	*buf = AppendBatch((*buf)[:0], zipfQuotes(4))
	kept := *buf // a holder that kept the payload past the Put
	if _, _, err := DecodeBatch(kept); err != nil {
		t.Fatalf("the encoded payload does not decode before the Put: %v", err)
	}
	PutEncodeBuffer(buf)
	for i, c := range kept {
		if c != 0xff {
			t.Fatalf("byte %d reads %#x after the Put, want the poison 0xff", i, c)
		}
	}
	if _, _, err := DecodeBatch(kept); err == nil {
		t.Fatal("a poisoned payload still decodes")
	}
}
