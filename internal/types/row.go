package types

import (
	"encoding/binary"
	"math"
	"strings"
)

// Row is a tuple of values. Rows are positional; column names and types live
// in the accompanying Schema.
type Row []Value

// Clone returns a copy of the row that shares no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports whether two rows have the same length and pairwise-equal
// values.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Concat returns a new row with o's values appended after r's.
func (r Row) Concat(o Row) Row {
	out := make(Row, 0, len(r)+len(o))
	out = append(out, r...)
	return append(out, o...)
}

// Key returns a canonical byte-string encoding of the row, suitable for use
// as a map key in operator state. Numeric values share one encoding per
// number, so that BIGINT 1 and DOUBLE 1.0 produce the same key (mirroring
// Equal; see keyParts).
func (r Row) Key() string {
	var b []byte
	for _, v := range r {
		b = appendValueKey(b, v)
	}
	return string(b)
}

// AppendKey appends the row's canonical Key encoding to dst and returns the
// extended slice. Hot paths pass a reusable scratch buffer and look maps up
// via m[string(buf)] (which the compiler keeps allocation-free), so the
// string is only materialized when a new map entry is actually created.
func (r Row) AppendKey(dst []byte) []byte {
	for _, v := range r {
		dst = appendValueKey(dst, v)
	}
	return dst
}

// KeyOf returns the canonical encoding of the values at the given indexes,
// the grouping/join-key analogue of Key.
func (r Row) KeyOf(idxs []int) string {
	var b []byte
	for _, idx := range idxs {
		b = appendValueKey(b, r[idx])
	}
	return string(b)
}

// AppendKeyOf is the scratch-buffer variant of KeyOf; see AppendKey.
func (r Row) AppendKeyOf(dst []byte, idxs []int) []byte {
	for _, idx := range idxs {
		dst = appendValueKey(dst, r[idx])
	}
	return dst
}

// AppendKey appends the value's canonical single-value key encoding to dst,
// the scalar analogue of Row.AppendKey (used by accumulator multisets).
func (v Value) AppendKey(dst []byte) []byte { return appendValueKey(dst, v) }

// SameKey reports whether a and b have the same key encoding, exactly
// a.AppendKey(nil) == b.AppendKey(nil), without encoding either. It reads
// the same keyParts appendValueKey writes, so the two cannot drift.
func SameKey(a, b Value) bool {
	ta, xa := keyParts(a)
	tb, xb := keyParts(b)
	if ta != tb || xa != xb {
		return false
	}
	return ta != keyString || a.s == b.s
}

// Key tags: the first byte of a value's key encoding.
const (
	keyNull      byte = 0
	keyBool      byte = 1
	keyNumber    byte = 2 // float64 bits of a numeric in the exact float range
	keyString    byte = 3
	keyTimestamp byte = 4
	keyInterval  byte = 5
	keyBigInt    byte = 6 // an integer beyond ±2^53, as its exact int64
	keyOther     byte = 0xFF
)

// exactFloatInt is 2^53: every integer of magnitude up to it is exactly a
// float64, and 2^53+1 is the first that is not.
const exactFloatInt = 1 << 53

// keyParts returns a value's key tag and fixed-width payload (a string's
// payload is its bytes, which appendValueKey writes after a length).
//
// Numerics share encodings so that BIGINT 1 and DOUBLE 1.0 produce the same
// key, mirroring Equal. Within ±2^53 that is the float64 bits. Beyond it a
// BIGINT keeps its exact int64, so 2^53 and 2^53+1 stay distinct keys, and a
// DOUBLE in int64 range (every DOUBLE of that magnitude is integral) takes
// the same form as the BIGINT it converts to exactly. Mixed-kind Equal stays
// lossy there: it compares through float64, so BIGINT 2^53+1 Equals DOUBLE
// 2^53 while their keys differ. A DOUBLE -0.0 Equals 0, so it takes 0.0's
// key, which BIGINT 0 shares.
func keyParts(v Value) (tag byte, x uint64) {
	switch v.kind {
	case KindNull:
		return keyNull, 0
	case KindBool:
		return keyBool, uint64(byte(v.i))
	case KindInt64:
		if v.i > exactFloatInt || v.i < -exactFloatInt {
			return keyBigInt, uint64(v.i)
		}
		return keyNumber, math.Float64bits(float64(v.i))
	case KindFloat64:
		switch f := v.Float(); {
		case f == 0:
			return keyNumber, 0 // +0.0's bits, for -0.0 too
		case (f > exactFloatInt || f < -exactFloatInt) && f >= math.MinInt64 && f < math.MaxInt64:
			return keyBigInt, uint64(int64(f))
		}
		return keyNumber, uint64(v.i)
	case KindString:
		return keyString, 0
	case KindTimestamp:
		return keyTimestamp, uint64(v.i)
	case KindInterval:
		return keyInterval, uint64(v.i)
	default:
		return keyOther, 0
	}
}

func appendValueKey(b []byte, v Value) []byte {
	tag, x := keyParts(v)
	b = append(b, tag)
	switch tag {
	case keyNull, keyOther:
		return b
	case keyBool:
		return append(b, byte(x))
	case keyString:
		b = binary.BigEndian.AppendUint32(b, uint32(len(v.s)))
		return append(b, v.s...)
	default:
		return binary.BigEndian.AppendUint64(b, x)
	}
}

// String renders the row as a parenthesised value list.
func (r Row) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Column describes one attribute of a relation.
type Column struct {
	// Name is the column's (case-insensitive) name.
	Name string
	// Kind is the column's SQL type.
	Kind Kind
	// EventTime marks the column as a watermarked event time column
	// (Extension 1 in the paper): the relation's watermark is a lower
	// bound on values that may still be inserted into this column.
	EventTime bool
	// WmOffset adjusts the completeness condition for the column: a value
	// v in this column is complete once watermark >= v + WmOffset. It is
	// zero for ordinary event-time columns; the Tumble/Hop wstart column
	// uses the window duration so that grouping by wstart reaches
	// completeness at the same moment as grouping by wend, exactly as
	// Section 6.4.1 describes ("assuming ideal watermark propagation, the
	// groupings reach completeness at the same time").
	WmOffset Duration
	// Windowed marks wstart/wend columns produced by a windowing TVF
	// (and their verbatim copies downstream). The stream rendering's
	// version numbers and the EMIT operators group output rows by these
	// columns — the paper's "revisions of the same event-time window".
	Windowed bool
}

// Schema is an ordered list of columns describing a relation's shape.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from the given columns.
func NewSchema(cols ...Column) *Schema { return &Schema{Cols: cols} }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// IndexOf returns the index of the column with the given name
// (case-insensitive), or -1 if absent.
func (s *Schema) IndexOf(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// EmitKeyCols returns the columns that identify an output row's event-time
// grouping for materialization control: the windowed event-time columns
// when present (a row's window), otherwise all event-time columns.
func (s *Schema) EmitKeyCols() []int {
	var windowed, event []int
	for i, c := range s.Cols {
		if !c.EventTime {
			continue
		}
		event = append(event, i)
		if c.Windowed {
			windowed = append(windowed, i)
		}
	}
	if len(windowed) > 0 {
		return windowed
	}
	return event
}

// HasEventTime reports whether any column is a watermarked event-time column.
func (s *Schema) HasEventTime() bool {
	for _, c := range s.Cols {
		if c.EventTime {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	cols := make([]Column, len(s.Cols))
	copy(cols, s.Cols)
	return &Schema{Cols: cols}
}

// Concat returns a schema with o's columns appended after s's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(o.Cols))
	cols = append(cols, s.Cols...)
	cols = append(cols, o.Cols...)
	return &Schema{Cols: cols}
}

// WithoutEventTime returns a copy of the schema with every EventTime flag
// cleared; used when an operator cannot preserve watermark alignment.
func (s *Schema) WithoutEventTime() *Schema {
	out := s.Clone()
	for i := range out.Cols {
		out.Cols[i].EventTime = false
	}
	return out
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(name TYPE[*], ...)" with * marking
// event-time columns.
func (s *Schema) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte(' ')
		sb.WriteString(c.Kind.String())
		if c.EventTime {
			sb.WriteByte('*')
		}
	}
	sb.WriteByte(')')
	return sb.String()
}
