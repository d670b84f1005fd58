// Package data defines the typed record model shared by bdbench's data
// generators, format converters and software-stack substrates: Value (a
// compact tagged union), Row, Schema and Table. Keeping one record model
// lets a data set generated once flow into any stack — the property the
// paper's Execution layer calls "format conversion".
package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value types bdbench tables support.
type Kind uint8

// The supported kinds. KindNull marks SQL-style missing values.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lowercase kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union. The zero Value is null.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int wraps an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float wraps a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ wraps a string. (Named with a trailing underscore because String
// is the Stringer method.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool wraps a bool.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the int64 payload (0 unless KindInt/KindBool).
func (v Value) Int() int64 { return v.i }

// Float returns the numeric payload as float64 for KindInt and KindFloat.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// Str returns the string payload ("" unless KindString).
func (v Value) Str() string { return v.s }

// Bool returns the boolean payload.
func (v Value) Bool() bool { return v.i != 0 }

// String renders the value for display and text formats: AppendText's text
// as a string.
func (v Value) String() string {
	if v.kind == KindString {
		return v.s // its own text; no copy
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the value's text form to dst and returns the extended
// slice. It is the one text format of a value; String and the text corpora
// both write it.
func (v Value) AppendText(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		return strconv.AppendInt(dst, v.i, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.f, 'g', -1, 64)
	case KindString:
		return append(dst, v.s...)
	case KindBool:
		return strconv.AppendBool(dst, v.i != 0)
	default:
		return append(dst, '?')
	}
}

// Compare orders two values: null < everything; numeric kinds compare
// numerically across int/float; strings and bools compare naturally.
// Cross-kind comparisons between non-numeric kinds order by kind.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	if numeric(a.kind) && numeric(b.kind) {
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		switch {
		case a.kind < b.kind:
			return -1
		default:
			return 1
		}
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Key is a comparable form of a Value, for hash maps: two non-NaN values have
// equal keys exactly when Compare calls them equal. Numbers key by their
// float64 value across int and float, with −0 as +0 and every NaN as one NaN;
// a string keys by its own text, a bool by its value, and null is the zero Key.
type Key struct {
	kind Kind // KindFloat for every number
	bits uint64
	s    string
}

// KeyOf returns the value's key. It copies nothing.
//
//bdbench:hotpath
func KeyOf(v Value) Key {
	switch v.kind {
	case KindInt, KindFloat:
		f := v.Float() + 0 // −0 + 0 is +0
		if f != f {
			f = math.NaN()
		}
		return Key{kind: KindFloat, bits: math.Float64bits(f)}
	case KindString:
		return Key{kind: KindString, s: v.s}
	case KindBool:
		return Key{kind: KindBool, bits: uint64(v.i)}
	default:
		return Key{}
	}
}

// Append appends to b an encoding of k that no other key shares and that is
// never a prefix of another key's, so a tuple of keys appended in turn can
// key a map: kind, bits, text length, text.
func (k Key) Append(b []byte) []byte {
	b = append(b, byte(k.kind))
	b = binary.LittleEndian.AppendUint64(b, k.bits)
	b = binary.AppendUvarint(b, uint64(len(k.s)))
	return append(b, k.s...)
}

// Row is one record: a positional list of values matching a Schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema names a record shape.
type Schema struct {
	Name string
	Cols []Column
}

// ColIndex returns the position of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that row matches the schema arity and kinds (null always
// allowed).
func (s Schema) Validate(row Row) error {
	if len(row) != len(s.Cols) {
		return fmt.Errorf("data: row arity %d does not match schema %q arity %d", len(row), s.Name, len(s.Cols))
	}
	for i, v := range row {
		if v.kind == KindNull {
			continue
		}
		if v.kind != s.Cols[i].Kind {
			return fmt.Errorf("data: column %q kind %v, row has %v", s.Cols[i].Name, s.Cols[i].Kind, v.kind)
		}
	}
	return nil
}

// Table is an in-memory relation: a schema plus rows. Generators produce
// Tables; stacks load them.
type Table struct {
	Schema Schema
	Rows   []Row
}

// NewTable returns an empty table with the given schema.
func NewTable(s Schema) *Table { return &Table{Schema: s} }

// Append validates and appends a row.
func (t *Table) Append(row Row) error {
	if err := t.Schema.Validate(row); err != nil {
		return err
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// Col extracts one column as a value slice.
func (t *Table) Col(name string) ([]Value, error) {
	idx := t.Schema.ColIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("data: no column %q in table %q", name, t.Schema.Name)
	}
	out := make([]Value, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = r[idx]
	}
	return out, nil
}
