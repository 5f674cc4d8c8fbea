package types

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func sampleRow() Row {
	return Row{NewInt(1), NewString("a"), NewTimestamp(ClockTime(8, 7))}
}

func TestRowCloneIndependence(t *testing.T) {
	r := sampleRow()
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone shares storage with original")
	}
	if !r.Equal(sampleRow()) {
		t.Error("original mutated")
	}
}

func TestRowEqual(t *testing.T) {
	if !sampleRow().Equal(sampleRow()) {
		t.Error("identical rows unequal")
	}
	if sampleRow().Equal(sampleRow()[:2]) {
		t.Error("rows of different length equal")
	}
	other := sampleRow()
	other[1] = NewString("b")
	if sampleRow().Equal(other) {
		t.Error("different rows equal")
	}
}

func TestRowConcatProject(t *testing.T) {
	r := Row{NewInt(1), NewInt(2)}.Concat(Row{NewInt(3)})
	if len(r) != 3 || r[2].Int() != 3 {
		t.Fatalf("Concat = %v", r)
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	// Strings that could collide under naive concatenation.
	a := Row{NewString("ab"), NewString("c")}
	b := Row{NewString("a"), NewString("bc")}
	if a.Key() == b.Key() {
		t.Error("Key() collides on ('ab','c') vs ('a','bc')")
	}
	// NULL vs empty string.
	if (Row{Null()}).Key() == (Row{NewString("")}).Key() {
		t.Error("Key() collides on NULL vs ''")
	}
	// Numeric cross-kind equality respected.
	if (Row{NewInt(1)}).Key() != (Row{NewFloat(1.0)}).Key() {
		t.Error("Key() should unify 1 and 1.0")
	}
	// Timestamp vs interval with same payload must differ.
	if (Row{NewTimestamp(5)}).Key() == (Row{NewInterval(5)}).Key() {
		t.Error("Key() collides on TIMESTAMP vs INTERVAL")
	}
}

func TestRowKeyOf(t *testing.T) {
	r := sampleRow()
	if string(r.AppendKeyOf(nil, []int{1})) != (Row{NewString("a")}).Key() {
		t.Error("AppendKeyOf mismatch")
	}
}

func TestQuickRowKeyMatchesEqual(t *testing.T) {
	f := func(a, b Value, c Value) bool {
		r1 := Row{a, c}
		r2 := Row{b, c}
		return (r1.Key() == r2.Key()) == r1.Equal(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{Name: "bidtime", Kind: KindTimestamp, EventTime: true},
		Column{Name: "price", Kind: KindInt64},
		Column{Name: "item", Kind: KindString},
	)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.IndexOf("PRICE") != 1 {
		t.Error("IndexOf should be case-insensitive")
	}
	if s.IndexOf("nope") != -1 {
		t.Error("IndexOf missing should be -1")
	}
	if !s.HasEventTime() {
		t.Error("HasEventTime should be true")
	}
	if cols := s.EmitKeyCols(); len(cols) != 1 || cols[0] != 0 {
		t.Errorf("EmitKeyCols = %v", cols)
	}
	if got := s.WithoutEventTime(); got.HasEventTime() {
		t.Error("WithoutEventTime left a flag set")
	}
	if s.Cols[0].EventTime == false {
		t.Error("WithoutEventTime mutated the receiver")
	}
	want := "(bidtime TIMESTAMP*, price BIGINT, item VARCHAR)"
	if s.String() != want {
		t.Errorf("String = %q, want %q", s.String(), want)
	}
	if n := s.Names(); n[2] != "item" {
		t.Errorf("Names = %v", n)
	}
}

func TestSchemaCloneConcat(t *testing.T) {
	a := NewSchema(Column{Name: "x", Kind: KindInt64})
	b := NewSchema(Column{Name: "y", Kind: KindString})
	c := a.Concat(b)
	if c.Len() != 2 || c.Cols[1].Name != "y" {
		t.Fatalf("Concat = %v", c)
	}
	cl := a.Clone()
	cl.Cols[0].Name = "z"
	if a.Cols[0].Name != "x" {
		t.Error("Clone shares storage")
	}
}

// keyCorpus holds a value of every kind plus the numeric edges of the key
// encoding: ±2^53 and its neighbours, the int64 extremes, integral DOUBLEs
// beyond 2^53, DOUBLEs beyond int64 range, signed zeros, NaN and infinities.
func keyCorpus() []Value {
	const big = int64(1) << 53
	vals := []Value{
		Null(), NewBool(false), NewBool(true),
		NewString(""), NewString("a"), NewString("ab"), NewString("\x02"),
		NewTimestamp(0), NewTimestamp(5), NewInterval(5), NewInterval(-1),
	}
	for _, i := range []int64{0, 1, -1, 5, big - 1, big, big + 1, big + 2, -big, -big - 1, -big - 2,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1} {
		vals = append(vals, NewInt(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 0.5, 5, float64(big), float64(big + 2), -float64(big),
		-float64(big + 2), 1e18, -1e18, math.Ldexp(1, 63), -math.Ldexp(1, 63), 1e300,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals = append(vals, NewFloat(f))
	}
	return vals
}

// TestSameKeyMatchesAppendKey pins SameKey to the encoding: over every pair
// of the corpus, SameKey(a, b) holds exactly when AppendKey writes the same
// bytes for both.
func TestSameKeyMatchesAppendKey(t *testing.T) {
	vals := keyCorpus()
	for _, a := range vals {
		for _, b := range vals {
			want := string(a.AppendKey(nil)) == string(b.AppendKey(nil))
			if got := SameKey(a, b); got != want {
				t.Errorf("SameKey(%s %s, %s %s) = %v, AppendKey equal = %v", a.Kind(), a, b.Kind(), b, got, want)
			}
		}
	}
}

// TestNumericKeyEncoding pins the numeric key bytes: within ±2^53 a BIGINT
// and a DOUBLE encode as tag 2 and the number's float64 bits (the bytes every
// snapshot and golden was written with), and beyond it a BIGINT keeps its
// exact int64 under tag 6, which an integral DOUBLE of the same number shares.
func TestNumericKeyEncoding(t *testing.T) {
	const big = int64(1) << 53
	floatKey := func(f float64) string {
		return string(binary.BigEndian.AppendUint64([]byte{2}, math.Float64bits(f)))
	}
	intKey := func(i int64) string {
		return string(binary.BigEndian.AppendUint64([]byte{6}, uint64(i)))
	}
	cases := []struct {
		v    Value
		want string
	}{
		{NewInt(1), floatKey(1)},
		{NewFloat(1), floatKey(1)},
		{NewInt(big), floatKey(float64(big))},
		{NewInt(-big), floatKey(-float64(big))},
		{NewFloat(float64(big)), floatKey(float64(big))},
		{NewFloat(0.5), floatKey(0.5)},
		{NewInt(big + 1), intKey(big + 1)},
		{NewInt(-big - 1), intKey(-big - 1)},
		{NewInt(big + 2), intKey(big + 2)},
		{NewFloat(float64(big + 2)), intKey(big + 2)},
		{NewInt(math.MinInt64), intKey(math.MinInt64)},
		{NewFloat(-math.Ldexp(1, 63)), intKey(math.MinInt64)},
		{NewFloat(math.Ldexp(1, 63)), floatKey(math.Ldexp(1, 63))},
		{NewFloat(math.Inf(1)), floatKey(math.Inf(1))},
	}
	for _, c := range cases {
		if got := string(c.v.AppendKey(nil)); got != c.want {
			t.Errorf("key of %s %s = %x, want %x", c.v.Kind(), c.v, got, c.want)
		}
	}
	if (Row{NewInt(big)}).Key() == (Row{NewInt(big + 1)}).Key() {
		t.Error("BIGINT 2^53 and 2^53+1 share a key")
	}
}
