package stream

import (
	"sort"
	"strings"
	"testing"
	"time"
)

func quotesSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("quotes",
		Field{Name: "symbol", Type: KindString, Card: 100},
		Field{Name: "price", Type: KindFloat, Lo: 0, Hi: 1000},
		Field{Name: "volume", Type: KindInt, Lo: 0, Hi: 1e6},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func quoteTuple(seq uint64, symbol string, price float64, volume int64) Tuple {
	return NewTuple("quotes", seq, time.Unix(int64(seq), 0).UTC(),
		String(symbol), Float(price), Int(volume))
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name   string
		stream string
		fields []Field
	}{
		{"empty stream name", "", []Field{{Name: "a", Type: KindInt}}},
		{"no fields", "s", nil},
		{"empty field name", "s", []Field{{Name: "", Type: KindInt}}},
		{"invalid type", "s", []Field{{Name: "a"}}},
		{"duplicate field", "s", []Field{{Name: "a", Type: KindInt}, {Name: "a", Type: KindFloat}}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.stream, c.fields...); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema with bad input did not panic")
		}
	}()
	MustSchema("")
}

func TestSchemaAccessors(t *testing.T) {
	s := quotesSchema(t)
	if s.Name() != "quotes" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.NumFields() != 3 {
		t.Errorf("NumFields = %d", s.NumFields())
	}
	if s.Field(1).Name != "price" {
		t.Errorf("Field(1) = %q", s.Field(1).Name)
	}
	i, ok := s.FieldIndex("volume")
	if !ok || i != 2 {
		t.Errorf("FieldIndex(volume) = %d,%v", i, ok)
	}
	if _, ok := s.FieldIndex("missing"); ok {
		t.Error("FieldIndex(missing) should not exist")
	}
	fs := s.Fields()
	fs[0].Name = "mutated"
	if s.Field(0).Name != "symbol" {
		t.Error("Fields() must return a copy")
	}
	if got := s.String(); !strings.Contains(got, "price:float") {
		t.Errorf("String = %q", got)
	}
}

func TestSchemaValidate(t *testing.T) {
	s := quotesSchema(t)
	good := quoteTuple(1, "ibm", 90, 100)
	if err := s.Validate(good); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	wrongStream := good
	wrongStream.Stream = "trades"
	if err := s.Validate(wrongStream); err == nil {
		t.Error("wrong stream accepted")
	}
	shortTuple := NewTuple("quotes", 1, time.Now(), String("ibm"))
	if err := s.Validate(shortTuple); err == nil {
		t.Error("wrong arity accepted")
	}
	wrongKind := NewTuple("quotes", 1, time.Now(), Int(1), Float(2), Int(3))
	if err := s.Validate(wrongKind); err == nil {
		t.Error("wrong field kind accepted")
	}
}

func TestFieldDomainWidth(t *testing.T) {
	if w := (Field{Lo: 10, Hi: 30}).DomainWidth(); w != 20 {
		t.Errorf("width = %v", w)
	}
	if w := (Field{Lo: 5, Hi: 5}).DomainWidth(); w != 0 {
		t.Errorf("degenerate width = %v", w)
	}
	if w := (Field{}).DomainWidth(); w != 0 {
		t.Errorf("zero field width = %v", w)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := quotesSchema(t)
	if err := c.Register(s); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.Register(s); err == nil {
		t.Error("duplicate register accepted")
	}
	if err := c.Register(nil); err == nil {
		t.Error("nil register accepted")
	}
	got, ok := c.Lookup("quotes")
	if !ok || got != s {
		t.Error("Lookup failed")
	}
	if _, ok := c.Lookup("missing"); ok {
		t.Error("Lookup(missing) succeeded")
	}
	other := MustSchema("alerts", Field{Name: "code", Type: KindInt})
	if err := c.Register(other); err != nil {
		t.Fatal(err)
	}
	streams := c.Streams()
	if len(streams) != 2 || streams[0] != "alerts" || streams[1] != "quotes" {
		t.Errorf("Streams = %v", streams)
	}
}

func TestTupleBasics(t *testing.T) {
	tu := quoteTuple(7, "ibm", 90.5, 100)
	if tu.Value(0).AsString() != "ibm" {
		t.Error("Value(0)")
	}
	if tu.Value(-1).Kind() != KindInvalid || tu.Value(99).Kind() != KindInvalid {
		t.Error("out-of-range Value should be invalid")
	}
	if s := tu.String(); !strings.Contains(s, "quotes#7") || !strings.Contains(s, "ibm") {
		t.Errorf("tuple String = %q", s)
	}
}

func TestTupleAndBatchSize(t *testing.T) {
	tu := quoteTuple(1, "ab", 1, 2)
	// stream "quotes"(6) +4 len prefix, seq 8, ts 8, nvalues 2,
	// string "ab" = 1+4+2, float = 9, int = 9.
	want := 4 + 6 + 8 + 8 + 2 + (1 + 4 + 2) + 9 + 9
	if got := tu.Size(); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	b := Batch{tu, tu}
	if got := b.Size(); got != 4+2*want {
		t.Errorf("batch Size = %d, want %d", got, 4+2*want)
	}
	// Size must agree exactly with the wire encoding.
	if enc := AppendTuple(nil, tu); len(enc) != tu.Size() {
		t.Errorf("encoded size %d != Size() %d", len(enc), tu.Size())
	}
	if enc := AppendBatch(nil, b); len(enc) != b.Size() {
		t.Errorf("encoded batch size %d != Size() %d", len(enc), b.Size())
	}
}

// Streams returns the sorted names of all registered streams.
func (c *Catalog) Streams() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.schemas))
	for name := range c.schemas {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
