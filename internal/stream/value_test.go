package stream

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"time"
	"unsafe"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{String("ibm"), KindString},
		{Value{}, KindInvalid},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("kind of %#v = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if Int(42).AsInt() != 42 {
		t.Error("AsInt lost value")
	}
	if Float(3.5).AsFloat() != 3.5 {
		t.Error("AsFloat lost value")
	}
	if Int(7).AsFloat() != 7 {
		t.Error("int AsFloat conversion failed")
	}
	if String("x").AsString() != "x" {
		t.Error("AsString lost value")
	}
	if String("x").AsFloat() != 0 {
		t.Error("string AsFloat should be 0")
	}
	if (Value{}).Kind() != KindInvalid {
		t.Error("zero value should be invalid")
	}
	if Int(0).Kind() == KindInvalid {
		t.Error("Int(0) should be valid")
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(5).Equal(Int(5)) {
		t.Error("Int(5) != Int(5)")
	}
	if Int(5).Equal(Float(5)) {
		t.Error("Int(5) should not Equal Float(5): kinds differ")
	}
	if Int(5).Equal(Int(6)) {
		t.Error("Int(5) == Int(6)")
	}
	if !String("a").Equal(String("a")) {
		t.Error("strings not equal")
	}
	if !(Value{}).Equal(Value{}) {
		t.Error("invalid values should be equal")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(1.5), "1.5"},
		{String("msft"), "msft"},
		{Value{}, "<invalid>"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueWireSize(t *testing.T) {
	if got := Int(1).wireSize(); got != 9 {
		t.Errorf("int wire size = %d, want 9", got)
	}
	if got := Float(1).wireSize(); got != 9 {
		t.Errorf("float wire size = %d, want 9", got)
	}
	if got := String("abc").wireSize(); got != 1+4+3 {
		t.Errorf("string wire size = %d, want 8", got)
	}
}

// TestValueLayout guards the sizes every batch arena pays per attribute
// and per row: a Value is a kind, one numeric word and a string; a Tuple
// stays 80 bytes.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Errorf("Value is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 80 {
		t.Errorf("Tuple is %d bytes, want 80", got)
	}
}

// TestValueNumericWord pins what sharing one word between the numeric
// kinds must not change: AsInt reads only ints, ints convert exactly
// where a float can hold them, floats compare as floats, and the codec
// carries every bit.
func TestValueNumericWord(t *testing.T) {
	for _, x := range []float64{1, -2.5, math.Inf(1), math.NaN()} {
		if got := Float(x).AsInt(); got != 0 {
			t.Errorf("Float(%v).AsInt() = %d, want 0", x, got)
		}
	}
	if got := Int(math.MinInt64).AsFloat(); got != -0x1p63 {
		t.Errorf("Int(MinInt64).AsFloat() = %v, want -2^63", got)
	}
	if got := Int(-1).AsInt(); got != -1 {
		t.Errorf("Int(-1).AsInt() = %d", got)
	}
	negZero := math.Copysign(0, -1)
	if !Float(0).Equal(Float(negZero)) {
		t.Error("Float(0) and Float(-0) are not Equal")
	}
	if Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN is Equal to NaN")
	}

	payload := math.Float64frombits(0x7ff8_0000_dead_beef)
	in := NewTuple("s", 1, time.Unix(0, 1).UTC(), Float(negZero), Float(payload))
	enc := AppendTuple(nil, in)
	b, _, err := DecodeBatch(AppendBatch(nil, Batch{in}))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1 << 63, 0x7ff8_0000_dead_beef} {
		if got := math.Float64bits(b[0].Values[i].AsFloat()); got != want {
			t.Errorf("value %d decodes to bits %#x, want %#x", i, got, want)
		}
	}
	if re := AppendTuple(nil, b[0]); !bytes.Equal(re, enc) {
		t.Errorf("re-encoding the decoded tuple changed its bytes:\n got %x\nwant %x", re, enc)
	}
}

// TestTupleWireFormatPinned records the encoding of one tuple with every
// value kind and a trace span, so a change of the wire format — which
// the simulated and the TCP transports, checkpoints and migration state
// all share — cannot pass unseen.
func TestTupleWireFormatPinned(t *testing.T) {
	tu := NewTuple("quotes", 0x0102030405060708, time.Unix(1_700_000_000, 123_456_789).UTC(),
		String("IBM"), Float(-1.5), Int(-3), Float(math.Copysign(0, -1)), Int(math.MaxInt64))
	tu.Span = 0xabcdef
	const want = "0600000071756f746573080706050403020115cd853dfe9c97170580030300000049424d02000000000000f8bf01fdffffffffffffff02000000000000008001ffffffffffffff7fefcdab0000000000"
	if got := hex.EncodeToString(AppendTuple(nil, tu)); got != want {
		t.Errorf("wire bytes changed:\n got %s\nwant %s", got, want)
	}
}
