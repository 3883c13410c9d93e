package stream

import "testing"

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
