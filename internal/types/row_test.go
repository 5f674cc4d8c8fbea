package types

import (
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
	if r.KeyOf([]int{1}) != (Row{NewString("a")}).Key() {
		t.Error("KeyOf mismatch")
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
