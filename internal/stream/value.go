// Package stream defines the data model shared by every layer of sspd:
// typed tuples flowing on named streams, stream schemas (the paper assumes
// a known global schema), sliding windows, and "data interest" predicates
// with which entities describe the subset of a stream their queries need
// (Section 3.1 of the paper). Interests support aggregation up a
// dissemination tree and overlap estimation, which supplies the edge
// weights of the query graph (Section 3.2.2).
package stream

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the primitive attribute types of the global schema.
type Kind uint8

// Supported value kinds.
const (
	KindInvalid Kind = iota
	KindInt
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return "invalid"
	}
}

// Value is a dynamically typed attribute value. The zero Value is invalid.
// Values are small — 32 bytes, a kind, one numeric word and a string —
// and intended to be passed by value. Every batch arena, decoded or
// compacted, is a slice of them.
type Value struct {
	kind Kind
	// n is the numeric payload: the int64's bits for KindInt, the
	// float64's IEEE bits for KindFloat — what the codec writes either way.
	n uint64
	s string
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// String returns a Value holding a string.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the int64 payload; it is 0 unless Kind is KindInt.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// AsFloat returns the numeric payload as float64. Int values are
// converted; non-numeric values yield 0.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.n)
	case KindInt:
		return float64(int64(v.n))
	default:
		return 0
	}
}

// AsString returns the string payload; it is "" unless Kind is KindString.
func (v Value) AsString() string { return v.s }

// Equal reports deep equality between two values. An int and a float
// comparing numerically equal are not Equal; kinds must match. Floats
// compare as floats: -0 equals 0 and NaN equals nothing.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.n == o.n
	case KindFloat:
		return math.Float64frombits(v.n) == math.Float64frombits(o.n)
	case KindString:
		return v.s == o.s
	default:
		return true
	}
}

// wireSize returns the length of the value's row-form encoding
// (AppendTuple), for Tuple.Size.
func (v Value) wireSize() int {
	switch v.kind {
	case KindInt, KindFloat:
		return 1 + 8
	case KindString:
		return 1 + 4 + len(v.s)
	default:
		return 1
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.n), 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "<invalid>"
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string {
	return fmt.Sprintf("stream.%s(%s)", kindConstructor(v.kind), v)
}

func kindConstructor(k Kind) string {
	switch k {
	case KindInt:
		return "Int"
	case KindFloat:
		return "Float"
	case KindString:
		return "String"
	default:
		return "Value"
	}
}
