// Package types implements the SQL value, row, and schema model shared by
// every layer of the engine: the parser produces literals as Values, the
// planner types expressions in terms of Kinds, and the execution engine
// moves Rows of Values through its operators.
//
// The model is deliberately compact: a Value is a small struct (no interface
// boxing) holding one of NULL, BOOLEAN, BIGINT, DOUBLE, VARCHAR, TIMESTAMP,
// or INTERVAL. Timestamps and intervals are millisecond counts, which keeps
// arithmetic exact and makes the paper's minute-granularity examples
// (8:07, 10-minute windows) trivially representable.
package types

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the SQL types supported by the engine.
type Kind uint8

// The supported SQL type kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt64
	KindFloat64
	KindString
	KindTimestamp
	KindInterval
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt64:
		return "BIGINT"
	case KindFloat64:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindTimestamp:
		return "TIMESTAMP"
	case KindInterval:
		return "INTERVAL"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsNumeric reports whether values of the kind participate in numeric
// arithmetic and numeric comparison coercion.
func (k Kind) IsNumeric() bool { return k == KindInt64 || k == KindFloat64 }

// Time is a point in event or processing time, in milliseconds since the
// engine epoch. The paper's examples use clock times within a single day
// ("8:07"); these map directly to millisecond offsets from midnight.
type Time int64

// Duration is a span of time in milliseconds (the representation of SQL
// INTERVAL values).
type Duration int64

// Sentinel times. MinTime sorts before every valid time and is the initial
// value of every watermark; MaxTime represents "input complete".
const (
	MinTime Time = -1 << 62
	MaxTime Time = 1<<62 - 1
)

// Common durations for constructing times and intervals.
const (
	Millisecond Duration = 1
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// ClockTime builds a Time at h hours, m minutes (and optional seconds) past
// the epoch, matching the paper's "8:07"-style example timestamps.
func ClockTime(h, m int, secs ...int) Time {
	t := Time(int64(h)*int64(Hour) + int64(m)*int64(Minute))
	for _, s := range secs {
		t += Time(int64(s) * int64(Second))
	}
	return t
}

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// String renders the time. Times that fall on a whole minute within the
// first day print in the paper's "8:07" style; other values print with
// full millisecond precision as day/hh:mm:ss.mmm.
func (t Time) String() string {
	if t == MinTime {
		return "-inf"
	}
	if t == MaxTime {
		return "+inf"
	}
	ms := int64(t)
	neg := ""
	if ms < 0 {
		neg, ms = "-", -ms
	}
	day := ms / int64(Day)
	ms %= int64(Day)
	h := ms / int64(Hour)
	ms %= int64(Hour)
	m := ms / int64(Minute)
	ms %= int64(Minute)
	s := ms / int64(Second)
	ms %= int64(Second)
	buf := make([]byte, 0, 20)
	buf = append(buf, neg...)
	if day == 0 && s == 0 && ms == 0 && neg == "" {
		buf = strconv.AppendInt(buf, h, 10)
		buf = append(buf, ':')
		buf = appendPad2(buf, m)
		return string(buf)
	}
	if day != 0 {
		buf = strconv.AppendInt(buf, day, 10)
		buf = append(buf, 'd')
		buf = appendPad2(buf, h)
	} else {
		buf = strconv.AppendInt(buf, h, 10)
	}
	buf = append(buf, ':')
	buf = appendPad2(buf, m)
	buf = append(buf, ':')
	buf = appendPad2(buf, s)
	buf = append(buf, '.')
	buf = appendPad3(buf, ms)
	return string(buf)
}

// appendPad2 appends n as at least two decimal digits (n is 0..99 here).
func appendPad2(b []byte, n int64) []byte {
	if n < 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, n, 10)
}

// appendPad3 appends n as at least three decimal digits (n is 0..999 here).
func appendPad3(b []byte, n int64) []byte {
	if n < 100 {
		b = append(b, '0')
		if n < 10 {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, n, 10)
}

// String renders the duration, using whole minutes where exact (the common
// case in the paper) and milliseconds otherwise.
func (d Duration) String() string {
	if d%Minute == 0 {
		return strconv.FormatInt(int64(d/Minute), 10) + "m"
	}
	return strconv.FormatInt(int64(d), 10) + "ms"
}

// Value is a single SQL value. The zero Value is SQL NULL.
//
// A Value is 32 bytes: the kind, one 64-bit payload and a string. Every
// fixed-width kind shares the payload, a DOUBLE included, which keeps its
// float64 bits there; every row the engine retains (catalog history,
// operator state, retained output) pays for that width once per column. The
// bits are a storage form only: Equal, Compare, AsFloat and the key
// encoding read a DOUBLE back as a float64 and compare it as one, so NaN
// equals nothing and -0.0 equals 0. Values are compared with Equal or
// SameKey, never with ==, which would compare a DOUBLE's bits.
type Value struct {
	kind Kind
	i    int64 // Bool (0/1), Int64, Float64 (math.Float64bits), Timestamp (ms), Interval (ms)
	s    string
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt returns a BIGINT value.
func NewInt(i int64) Value { return Value{kind: KindInt64, i: i} }

// NewFloat returns a DOUBLE value.
func NewFloat(f float64) Value { return Value{kind: KindFloat64, i: int64(math.Float64bits(f))} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewTimestamp returns a TIMESTAMP value.
func NewTimestamp(t Time) Value { return Value{kind: KindTimestamp, i: int64(t)} }

// NewInterval returns an INTERVAL value.
func NewInterval(d Duration) Value { return Value{kind: KindInterval, i: int64(d)} }

// Kind returns the value's type kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It must only be called on KindBool.
func (v Value) Bool() bool { return v.i != 0 }

// Int returns the integer payload. It must only be called on KindInt64.
func (v Value) Int() int64 { return v.i }

// Float returns the float payload. It must only be called on KindFloat64.
func (v Value) Float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload. It must only be called on KindString.
func (v Value) Str() string { return v.s }

// Timestamp returns the time payload. It must only be called on KindTimestamp.
func (v Value) Timestamp() Time { return Time(v.i) }

// Interval returns the duration payload. It must only be called on KindInterval.
func (v Value) Interval() Duration { return Duration(v.i) }

// AsFloat converts a numeric value to float64 for mixed-type arithmetic; a
// value of any other kind converts to 0.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt64:
		return float64(v.i)
	case KindFloat64:
		return v.Float()
	}
	return 0
}

// String renders the value for display (and for the listing tables).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt64:
		return strconv.FormatInt(v.i, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTimestamp:
		return Time(v.i).String()
	case KindInterval:
		return Duration(v.i).String()
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Equal reports deep equality of two values (same kind, same payload).
// NULL equals NULL under this relation; SQL tri-state comparison is handled
// by Compare and the expression evaluator, not here.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// Numeric values of different kinds compare equal when they
		// represent the same number, so that e.g. a join key of 1
		// matches 1.0.
		if v.kind.IsNumeric() && o.kind.IsNumeric() {
			return v.AsFloat() == o.AsFloat()
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindFloat64:
		return v.Float() == o.Float()
	case KindString:
		return v.s == o.s
	default:
		return v.i == o.i
	}
}

// Compare orders two non-NULL values of comparable kinds. It returns
// -1, 0, or +1, and an error for incomparable kinds. Numeric kinds are
// mutually comparable; otherwise the kinds must match.
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, fmt.Errorf("types: cannot compare NULL values; use IsNull")
	}
	if v.kind.IsNumeric() && o.kind.IsNumeric() {
		if v.kind == KindInt64 && o.kind == KindInt64 {
			return cmpInt64(v.i, o.i), nil
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.kind != o.kind {
		return 0, fmt.Errorf("types: cannot compare %s with %s", v.kind, o.kind)
	}
	switch v.kind {
	case KindBool, KindTimestamp, KindInterval:
		return cmpInt64(v.i, o.i), nil
	case KindString:
		switch {
		case v.s < o.s:
			return -1, nil
		case v.s > o.s:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("types: cannot compare kind %s", v.kind)
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Arithmetic. Each operation returns NULL if either operand is NULL,
// following SQL semantics.

// Add computes v + o: numeric addition, interval+interval,
// timestamp+interval (and interval+timestamp).
func (v Value) Add(o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	switch {
	case v.kind == KindInt64 && o.kind == KindInt64:
		return NewInt(v.i + o.i), nil
	case v.kind.IsNumeric() && o.kind.IsNumeric():
		return NewFloat(v.AsFloat() + o.AsFloat()), nil
	case v.kind == KindInterval && o.kind == KindInterval:
		return NewInterval(Duration(v.i + o.i)), nil
	case v.kind == KindTimestamp && o.kind == KindInterval:
		return NewTimestamp(Time(v.i + o.i)), nil
	case v.kind == KindInterval && o.kind == KindTimestamp:
		return NewTimestamp(Time(v.i + o.i)), nil
	}
	return Null(), fmt.Errorf("types: cannot add %s and %s", v.kind, o.kind)
}

// Sub computes v - o: numeric subtraction, interval-interval,
// timestamp-interval, and timestamp-timestamp (yielding an interval).
func (v Value) Sub(o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	switch {
	case v.kind == KindInt64 && o.kind == KindInt64:
		return NewInt(v.i - o.i), nil
	case v.kind.IsNumeric() && o.kind.IsNumeric():
		return NewFloat(v.AsFloat() - o.AsFloat()), nil
	case v.kind == KindInterval && o.kind == KindInterval:
		return NewInterval(Duration(v.i - o.i)), nil
	case v.kind == KindTimestamp && o.kind == KindInterval:
		return NewTimestamp(Time(v.i - o.i)), nil
	case v.kind == KindTimestamp && o.kind == KindTimestamp:
		return NewInterval(Duration(v.i - o.i)), nil
	}
	return Null(), fmt.Errorf("types: cannot subtract %s from %s", o.kind, v.kind)
}

// Mul computes v * o: numeric multiplication and interval*integer.
func (v Value) Mul(o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	switch {
	case v.kind == KindInt64 && o.kind == KindInt64:
		return NewInt(v.i * o.i), nil
	case v.kind.IsNumeric() && o.kind.IsNumeric():
		return NewFloat(v.AsFloat() * o.AsFloat()), nil
	case v.kind == KindInterval && o.kind == KindInt64:
		return NewInterval(Duration(v.i * o.i)), nil
	case v.kind == KindInt64 && o.kind == KindInterval:
		return NewInterval(Duration(v.i * o.i)), nil
	case v.kind == KindInterval && o.kind == KindFloat64:
		return NewInterval(Duration(float64(v.i) * o.Float())), nil
	}
	return Null(), fmt.Errorf("types: cannot multiply %s and %s", v.kind, o.kind)
}

// Div computes v / o: numeric division (integer division for two BIGINTs,
// per SQL) and interval/integer. Division by zero is an error.
func (v Value) Div(o Value) (Value, error) {
	if v.IsNull() || o.IsNull() {
		return Null(), nil
	}
	switch {
	case v.kind == KindInt64 && o.kind == KindInt64:
		if o.i == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return NewInt(v.i / o.i), nil
	case v.kind.IsNumeric() && o.kind.IsNumeric():
		if o.AsFloat() == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return NewFloat(v.AsFloat() / o.AsFloat()), nil
	case v.kind == KindInterval && o.kind == KindInt64:
		if o.i == 0 {
			return Null(), fmt.Errorf("types: division by zero")
		}
		return NewInterval(Duration(v.i / o.i)), nil
	}
	return Null(), fmt.Errorf("types: cannot divide %s by %s", v.kind, o.kind)
}

// Neg computes -v for numeric and interval values.
func (v Value) Neg() (Value, error) {
	switch v.kind {
	case KindNull:
		return Null(), nil
	case KindInt64:
		return NewInt(-v.i), nil
	case KindFloat64:
		return NewFloat(-v.Float()), nil
	case KindInterval:
		return NewInterval(Duration(-v.i)), nil
	}
	return Null(), fmt.Errorf("types: cannot negate %s", v.kind)
}
