package stream

import (
	"fmt"
	"sync"
)

// Field describes one attribute of a stream schema. Numeric fields may
// declare a domain [Lo, Hi] which interest-overlap estimation uses to
// turn predicate ranges into selectivity fractions.
type Field struct {
	Name string
	Type Kind
	// Lo and Hi bound the expected value domain for numeric fields.
	// They are advisory: tuples outside the domain are still legal.
	Lo, Hi float64
	// Card is the expected number of distinct values of a string field
	// (e.g. the number of stock symbols). Zero means unknown.
	Card int
}

// DomainWidth returns Hi-Lo, or 0 when no domain is declared.
func (f Field) DomainWidth() float64 {
	if f.Hi <= f.Lo {
		return 0
	}
	return f.Hi - f.Lo
}

// Schema is the typed layout of a stream's tuples. Schemas are immutable
// after construction and safe for concurrent use.
type Schema struct {
	name   string
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema for the named stream. Field names must be
// unique and non-empty.
func NewSchema(name string, fields ...Field) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: schema needs a stream name")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("stream: schema %q needs at least one field", name)
	}
	idx := make(map[string]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("stream: schema %q field %d has empty name", name, i)
		}
		if f.Type == KindInvalid {
			return nil, fmt.Errorf("stream: schema %q field %q has invalid type", name, f.Name)
		}
		if _, dup := idx[f.Name]; dup {
			return nil, fmt.Errorf("stream: schema %q duplicate field %q", name, f.Name)
		}
		idx[f.Name] = i
	}
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return &Schema{name: name, fields: fs, index: idx}, nil
}

// MustSchema is like NewSchema but panics on error. Intended for package
// level schema literals in tests and workload generators.
func MustSchema(name string, fields ...Field) *Schema {
	s, err := NewSchema(name, fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the stream name the schema describes.
func (s *Schema) Name() string { return s.name }

// NumFields returns the number of attributes.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field. It panics if i is out of range, matching
// slice semantics.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// FieldIndex returns the index of the named field and whether it exists.
func (s *Schema) FieldIndex(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Validate checks that a tuple structurally conforms to the schema:
// correct stream name, arity, and per-field kinds.
func (s *Schema) Validate(t Tuple) error {
	if t.Stream != s.name {
		return fmt.Errorf("stream: tuple stream %q does not match schema %q", t.Stream, s.name)
	}
	if len(t.Values) != len(s.fields) {
		return fmt.Errorf("stream: tuple arity %d does not match schema %q arity %d",
			len(t.Values), s.name, len(s.fields))
	}
	for i, v := range t.Values {
		if v.Kind() != s.fields[i].Type {
			return fmt.Errorf("stream: tuple field %q is %v, schema wants %v",
				s.fields[i].Name, v.Kind(), s.fields[i].Type)
		}
	}
	return nil
}

// String renders the schema as "name(field:type, ...)".
func (s *Schema) String() string {
	out := s.name + "("
	for i, f := range s.fields {
		if i > 0 {
			out += ", "
		}
		out += f.Name + ":" + f.Type.String()
	}
	return out + ")"
}

// Catalog is a registry of schemas keyed by stream name — the paper's
// "known global schema" shared by all entities. Catalog is safe for
// concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	schemas map[string]*Schema
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{schemas: make(map[string]*Schema)}
}

// Register adds a schema. Registering a second schema for the same stream
// is an error: the global schema is agreed on up front.
func (c *Catalog) Register(s *Schema) error {
	if s == nil {
		return fmt.Errorf("stream: nil schema")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.schemas[s.Name()]; dup {
		return fmt.Errorf("stream: schema for %q already registered", s.Name())
	}
	c.schemas[s.Name()] = s
	return nil
}

// Lookup returns the schema for the named stream.
func (c *Catalog) Lookup(name string) (*Schema, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.schemas[name]
	return s, ok
}
