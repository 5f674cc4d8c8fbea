package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{ClockTime(8, 7), "8:07"},
		{ClockTime(0, 0), "0:00"},
		{ClockTime(23, 59), "23:59"},
		{ClockTime(8, 7, 30), "8:07:30.000"},
		{MinTime, "-inf"},
		{MaxTime, "+inf"},
		{Time(int64(Day) + int64(Hour)), "1d01:00:00.000"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestClockTime(t *testing.T) {
	if ClockTime(8, 7) != Time(8*int64(Hour)+7*int64(Minute)) {
		t.Fatalf("ClockTime(8,7) wrong: %d", ClockTime(8, 7))
	}
	if ClockTime(0, 0, 5) != Time(5*int64(Second)) {
		t.Fatalf("ClockTime(0,0,5) wrong")
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	if v := NewBool(true); v.Kind() != KindBool || !v.Bool() {
		t.Error("NewBool broken")
	}
	if v := NewInt(42); v.Kind() != KindInt64 || v.Int() != 42 {
		t.Error("NewInt broken")
	}
	if v := NewFloat(2.5); v.Kind() != KindFloat64 || v.Float() != 2.5 {
		t.Error("NewFloat broken")
	}
	if v := NewString("hi"); v.Kind() != KindString || v.Str() != "hi" {
		t.Error("NewString broken")
	}
	if v := NewTimestamp(ClockTime(8, 7)); v.Kind() != KindTimestamp || v.Timestamp() != ClockTime(8, 7) {
		t.Error("NewTimestamp broken")
	}
	if v := NewInterval(10 * Minute); v.Kind() != KindInterval || v.Interval() != 10*Minute {
		t.Error("NewInterval broken")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-3), "-3"},
		{NewFloat(1.5), "1.5"},
		{NewString("abc"), "abc"},
		{NewTimestamp(ClockTime(8, 10)), "8:10"},
		{NewInterval(10 * Minute), "10m"},
		{NewInterval(1500 * Millisecond), "1500ms"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueEqualCrossNumeric(t *testing.T) {
	if !NewInt(1).Equal(NewFloat(1.0)) {
		t.Error("1 should equal 1.0")
	}
	if NewInt(1).Equal(NewFloat(1.5)) {
		t.Error("1 should not equal 1.5")
	}
	if NewInt(1).Equal(NewString("1")) {
		t.Error("1 should not equal '1'")
	}
	if !Null().Equal(Null()) {
		t.Error("NULL.Equal(NULL) should be true for state bookkeeping")
	}
	negZero := NewFloat(math.Copysign(0, -1))
	if !negZero.Equal(NewFloat(0)) || !negZero.Equal(NewInt(0)) || !NewInt(0).Equal(negZero) {
		t.Error("-0.0 should equal 0.0 and 0")
	}
	if nan := NewFloat(math.NaN()); nan.Equal(nan) {
		t.Error("NaN should not equal itself")
	}
}

// TestValueIs32Bytes pins the Value layout: a DOUBLE keeps its bits in the
// shared 64-bit payload, so no kind pays for a separate float field.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != -1 {
			t.Errorf("Compare(%v,%v) = %d,%v want -1,nil", a, b, c, err)
		}
		c, err = b.Compare(a)
		if err != nil || c != 1 {
			t.Errorf("Compare(%v,%v) = %d,%v want 1,nil", b, a, c, err)
		}
	}
	eq := func(a, b Value) {
		t.Helper()
		c, err := a.Compare(b)
		if err != nil || c != 0 {
			t.Errorf("Compare(%v,%v) = %d,%v want 0,nil", a, b, c, err)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewFloat(1.5), NewInt(2))
	lt(NewString("a"), NewString("b"))
	lt(NewTimestamp(ClockTime(8, 0)), NewTimestamp(ClockTime(8, 1)))
	lt(NewInterval(Minute), NewInterval(Hour))
	lt(NewBool(false), NewBool(true))
	eq(NewInt(2), NewFloat(2.0))
	eq(NewString("x"), NewString("x"))

	if _, err := NewInt(1).Compare(NewString("1")); err == nil {
		t.Error("BIGINT vs VARCHAR comparison should error")
	}
	if _, err := Null().Compare(NewInt(1)); err == nil {
		t.Error("NULL comparison should error")
	}
	if _, err := NewTimestamp(0).Compare(NewInterval(0)); err == nil {
		t.Error("TIMESTAMP vs INTERVAL comparison should error")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
	if got := mustV(NewInt(2).Add(NewInt(3))); got.Int() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(NewInt(2).Add(NewFloat(0.5))); got.Float() != 2.5 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(NewTimestamp(ClockTime(8, 0)).Add(NewInterval(10 * Minute))); got.Timestamp() != ClockTime(8, 10) {
		t.Errorf("8:00+10m = %v", got)
	}
	if got := mustV(NewTimestamp(ClockTime(8, 20)).Sub(NewInterval(10 * Minute))); got.Timestamp() != ClockTime(8, 10) {
		t.Errorf("8:20-10m = %v", got)
	}
	if got := mustV(NewTimestamp(ClockTime(8, 20)).Sub(NewTimestamp(ClockTime(8, 0)))); got.Interval() != 20*Minute {
		t.Errorf("8:20-8:00 = %v", got)
	}
	if got := mustV(NewInterval(Minute).Mul(NewInt(10))); got.Interval() != 10*Minute {
		t.Errorf("1m*10 = %v", got)
	}
	if got := mustV(NewInt(7).Div(NewInt(2))); got.Int() != 3 {
		t.Errorf("7/2 = %v (SQL integer division)", got)
	}
	if got := mustV(NewFloat(7).Div(NewInt(2))); got.Float() != 3.5 {
		t.Errorf("7.0/2 = %v", got)
	}
	if got := mustV(NewInt(3).Neg()); got.Int() != -3 {
		t.Errorf("-3 = %v", got)
	}
	// NULL propagation.
	if got := mustV(Null().Add(NewInt(1))); !got.IsNull() {
		t.Errorf("NULL+1 = %v, want NULL", got)
	}
	// Errors.
	if _, err := NewInt(1).Div(NewInt(0)); err == nil {
		t.Error("1/0 should error")
	}
	if _, err := NewString("a").Add(NewString("b")); err == nil {
		t.Error("VARCHAR + VARCHAR should error")
	}
	if _, err := NewString("a").Neg(); err == nil {
		t.Error("-VARCHAR should error")
	}
}

// genValue produces a random non-NULL value for property tests. One draw in
// seven is a numeric zero: BIGINT 0, DOUBLE 0.0 or DOUBLE -0.0, so pairs of
// zeros of every sign and kind come up.
func genValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 6:
		return []Value{NewInt(0), NewFloat(0), NewFloat(math.Copysign(0, -1))}[r.Intn(3)]
	case 0:
		return NewBool(r.Intn(2) == 0)
	case 1:
		return NewInt(r.Int63n(1000) - 500)
	case 2:
		return NewFloat(float64(r.Int63n(1000))/4 - 100)
	case 3:
		return NewString(string(rune('a' + r.Intn(26))))
	case 4:
		return NewTimestamp(Time(r.Int63n(int64(Day)))) //nolint
	default:
		return NewInterval(Duration(r.Int63n(int64(Hour)))) //nolint
	}
}

// Generate implements quick.Generator so quick.Check can synthesise Values.
func (Value) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genValue(r))
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b Value) bool {
		c1, err1 := a.Compare(b)
		c2, err2 := b.Compare(a)
		if err1 != nil || err2 != nil {
			// Incomparable both ways is consistent.
			return err1 != nil && err2 != nil
		}
		return c1 == -c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickEqualImpliesCompareZero(t *testing.T) {
	f := func(a, b Value) bool {
		if !a.Equal(b) {
			return true
		}
		c, err := a.Compare(b)
		return err == nil && c == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyMatchesEqual(t *testing.T) {
	f := func(a, b Value) bool {
		ka := Row{a}.Key()
		kb := Row{b}.Key()
		return (ka == kb) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(a, b int64) bool {
		a, b = a%1_000_000, b%1_000_000
		sum, err := NewInt(a).Add(NewInt(b))
		if err != nil {
			return false
		}
		back, err := sum.Sub(NewInt(b))
		return err == nil && back.Int() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
