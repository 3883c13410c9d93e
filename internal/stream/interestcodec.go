package stream

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Binary interest-set codec: the payload of a dissemination-tree
// registration. Counts and lengths are unsigned varints, bounds are the
// float64 bits, little-endian:
//
//	stream name (length, bytes) | term count
//	per term, in the set's order:
//	  range count | per range:   field (length, bytes) | lo | hi
//	  key-set count | per key set: field (length, bytes) | key count |
//	                               per key: (length, bytes)
//
// Fields are written in ascending name order and keys in ascending
// order, so a set has exactly one encoding: two registrations of the
// same set are byte-identical, which is what lets a relay compare a
// registration with the last one by its bytes. The decoder accepts only
// that encoding (minimal varints, strictly ascending names and keys, no
// trailing bytes), so every payload that decodes re-encodes to itself.

// Smallest encodings, which bound each count by the bytes left before
// anything is sized from it.
const (
	minTermWire   = 2         // two zero counts
	minRangeWire  = 1 + 8 + 8 // an empty field name and two bounds
	minKeySetWire = 1 + 1     // an empty field name and a zero count
	minKeyWire    = 1         // an empty key
)

// AppendInterestSet encodes set onto dst and returns the extended slice.
// Each term is written under the set's stream.
func AppendInterestSet(dst []byte, set *InterestSet) []byte {
	dst = appendWireString(dst, set.Stream)
	dst = binary.AppendUvarint(dst, uint64(len(set.Terms)))
	var names, keys []string
	for _, term := range set.Terms {
		names = sortedNames(names[:0], term.Ranges)
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, f := range names {
			r := term.Ranges[f]
			dst = appendWireString(dst, f)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Lo))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Hi))
		}
		names = sortedNames(names[:0], term.Keys)
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, f := range names {
			keys = sortedNames(keys[:0], term.Keys[f])
			dst = appendWireString(dst, f)
			dst = binary.AppendUvarint(dst, uint64(len(keys)))
			for _, k := range keys {
				dst = appendWireString(dst, k)
			}
		}
	}
	return dst
}

// sortedNames appends m's keys to dst in ascending order.
func sortedNames[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeInterestSet decodes a whole payload written by
// AppendInterestSet. Every term is in the set's stream; a field with an
// empty key set decodes to an empty, non-nil set (a constraint nothing
// satisfies), and a term with no ranges or no key sets has a nil map
// there.
func DecodeInterestSet(buf []byte) (*InterestSet, error) {
	d := interestDecoder{buf: buf}
	name := d.str()
	nterms := d.count(minTermWire)
	if d.err != nil {
		return nil, d.err
	}
	set := &InterestSet{Stream: name, Terms: make([]Interest, 0, nterms)}
	for t := 0; t < nterms && d.err == nil; t++ {
		in := Interest{Stream: name}
		if n := d.count(minRangeWire); n > 0 {
			in.Ranges = make(map[string]Range, n)
			prev := ""
			for i := 0; i < n && d.err == nil; i++ {
				f := d.ascending(&prev, i)
				lo := d.float()
				in.Ranges[f] = Range{Lo: lo, Hi: d.float()}
			}
		}
		if n := d.count(minKeySetWire); n > 0 {
			in.Keys = make(map[string]map[string]bool, n)
			prev := ""
			for i := 0; i < n && d.err == nil; i++ {
				f := d.ascending(&prev, i)
				nk := d.count(minKeyWire)
				keys := make(map[string]bool, nk)
				prevKey := ""
				for j := 0; j < nk && d.err == nil; j++ {
					keys[d.ascending(&prevKey, j)] = true
				}
				in.Keys[f] = keys
			}
		}
		set.Terms = append(set.Terms, in)
	}
	if d.err == nil && d.off != len(buf) {
		d.err = fmt.Errorf("stream: %d bytes after the interest set", len(buf)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return set, nil
}

// interestDecoder reads the codec's items from the front of buf. The
// first error sticks: every later read returns a zero value.
type interestDecoder struct {
	buf []byte
	off int
	err error
}

func (d *interestDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("stream: interest set: "+format, args...)
	}
}

// uvarint reads one minimally encoded varint.
func (d *interestDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	if n != varintLen(v) {
		d.fail("overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func varintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// count reads a count of items no smaller than minWire bytes each, and
// refuses one the bytes left could not hold.
func (d *interestDecoder) count(minWire int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64((len(d.buf)-d.off)/minWire) {
		d.fail("count %d at offset %d exceeds the %d bytes left", v, d.off, len(d.buf)-d.off)
		return 0
	}
	return int(v)
}

func (d *interestDecoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// ascending reads the i-th string of a list that must be strictly
// ascending, *prev holding the one before it.
func (d *interestDecoder) ascending(prev *string, i int) string {
	s := d.str()
	if d.err == nil && i > 0 && s <= *prev {
		d.fail("%q after %q is out of order", s, *prev)
	}
	*prev = s
	return s
}

func (d *interestDecoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.fail("truncated bound at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}
