package tvr

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

func row(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestRelationBagSemantics(t *testing.T) {
	r := NewRelation()
	r.Insert(row(1))
	r.Insert(row(1))
	r.Insert(row(2))
	if r.Len() != 3 || r.Count(row(1)) != 2 || r.Count(row(2)) != 1 {
		t.Fatalf("Len=%d rows=%v", r.Len(), r.Rows())
	}
	if err := r.Delete(row(1)); err != nil {
		t.Fatal(err)
	}
	if r.Count(row(1)) != 1 || r.Len() != 2 {
		t.Fatal("delete did not decrement")
	}
	if err := r.Delete(row(3)); err == nil {
		t.Fatal("deleting absent row should error")
	}
	if err := r.Delete(row(1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(row(1)); err == nil {
		t.Fatal("underflow should error")
	}
}

func TestRelationOrderDeterministic(t *testing.T) {
	r := NewRelation()
	r.Insert(row(3))
	r.Insert(row(1))
	r.Insert(row(2))
	rows := r.Rows()
	want := []int64{3, 1, 2}
	for i, w := range want {
		if rows[i][0].Int() != w {
			t.Fatalf("order %v, want %v", rows, want)
		}
	}
	// Deleting and re-inserting moves to the back.
	if err := r.Delete(row(3)); err != nil {
		t.Fatal(err)
	}
	r.Insert(row(3))
	rows = r.Rows()
	want = []int64{1, 2, 3}
	for i, w := range want {
		if rows[i][0].Int() != w {
			t.Fatalf("order after reinsert %v, want %v", rows, want)
		}
	}
}

func TestRelationEqualCloneDiff(t *testing.T) {
	a := NewRelation()
	a.Insert(row(1))
	a.Insert(row(1))
	a.Insert(row(2))
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Insert(row(3))
	if a.Equal(b) {
		t.Fatal("should differ after insert")
	}
	diff := a.Diff(b, types.ClockTime(9, 0))
	// Applying the diff to a copy of a should yield b.
	c := a.Clone()
	for _, e := range diff {
		if err := c.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Equal(b) {
		t.Fatalf("diff-apply mismatch: %v vs %v", c, b)
	}
	// Diff in the other direction too (deletions).
	diff2 := b.Diff(a, 0)
	d := b.Clone()
	for _, e := range diff2 {
		if err := d.Apply(e); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Equal(a) {
		t.Fatal("reverse diff mismatch")
	}
}

func TestChangelogValidate(t *testing.T) {
	good := Changelog{
		WatermarkEvent(types.ClockTime(8, 7), types.ClockTime(8, 5)),
		InsertEvent(types.ClockTime(8, 8), row(1)),
		WatermarkEvent(types.ClockTime(8, 14), types.ClockTime(8, 8)),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	badP := Changelog{
		InsertEvent(types.ClockTime(8, 8), row(1)),
		InsertEvent(types.ClockTime(8, 7), row(2)),
	}
	if err := badP.Validate(); err == nil {
		t.Fatal("ptime regression not detected")
	}
	badW := Changelog{
		WatermarkEvent(types.ClockTime(8, 7), types.ClockTime(8, 5)),
		WatermarkEvent(types.ClockTime(8, 8), types.ClockTime(8, 4)),
	}
	if err := badW.Validate(); err == nil {
		t.Fatal("watermark regression not detected")
	}
}

func TestSnapshotAtAndWatermarkAt(t *testing.T) {
	c := Changelog{
		InsertEvent(types.ClockTime(8, 8), row(1)),
		WatermarkEvent(types.ClockTime(8, 10), types.ClockTime(8, 5)),
		InsertEvent(types.ClockTime(8, 12), row(2)),
		DeleteEvent(types.ClockTime(8, 13), row(1)),
	}
	at := func(h, m int) *Relation {
		t.Helper()
		rel, err := c.SnapshotAt(types.ClockTime(h, m))
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	if got := at(8, 7).Len(); got != 0 {
		t.Fatalf("at 8:07 len=%d", got)
	}
	if got := at(8, 8).Len(); got != 1 {
		t.Fatalf("at 8:08 len=%d", got)
	}
	if got := at(8, 12).Len(); got != 2 {
		t.Fatalf("at 8:12 len=%d", got)
	}
	final := at(8, 30)
	if final.Len() != 1 || final.Count(row(2)) != 1 {
		t.Fatalf("final = %v", final)
	}
	if c.DataCount() != 3 {
		t.Fatalf("DataCount = %d", c.DataCount())
	}
}

func TestRenderStreamVersions(t *testing.T) {
	// Two windows (key column 0); window 10 gets three changes, window 20 one.
	c := Changelog{
		InsertEvent(types.ClockTime(8, 8), row(10, 2)),
		InsertEvent(types.ClockTime(8, 12), row(20, 3)),
		DeleteEvent(types.ClockTime(8, 13), row(10, 2)),
		InsertEvent(types.ClockTime(8, 13), row(10, 4)),
	}
	rows := RenderStream(c, []int{0})
	if len(rows) != 4 {
		t.Fatalf("len=%d", len(rows))
	}
	wantVers := []int{0, 0, 1, 2}
	wantUndo := []bool{false, false, true, false}
	for i := range rows {
		if rows[i].Ver != wantVers[i] || rows[i].Undo != wantUndo[i] {
			t.Errorf("row %d = %+v, want ver=%d undo=%v", i, rows[i], wantVers[i], wantUndo[i])
		}
	}
}

func TestEventStrings(t *testing.T) {
	e := InsertEvent(types.ClockTime(8, 8), row(1))
	if got := e.String(); got != "8:08 INSERT (1)" {
		t.Errorf("insert String = %q", got)
	}
	w := WatermarkEvent(types.ClockTime(8, 7), types.ClockTime(8, 5))
	if got := w.String(); got != "8:07 WM -> 8:05" {
		t.Errorf("wm String = %q", got)
	}
	if HeartbeatEvent(0).String() != "0:00 HB" {
		t.Errorf("hb String = %q", HeartbeatEvent(0).String())
	}
	if Insert.String() != "INSERT" || Delete.String() != "DELETE" {
		t.Error("kind strings")
	}
}

func TestFormatTable(t *testing.T) {
	s := FormatTable([]string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(s, "| a   | bb |") || !strings.Contains(s, "| 333 | 4  |") {
		t.Errorf("FormatTable output:\n%s", s)
	}
	sch := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt64})
	out := FormatRelationTable(sch, []types.Row{row(7)})
	if !strings.Contains(out, "| 7 |") {
		t.Errorf("FormatRelationTable:\n%s", out)
	}
	srows := []StreamRow{{Row: row(7), Undo: true, Ptime: types.ClockTime(8, 8), Ver: 1}}
	out = FormatStreamTable(sch, srows)
	if !strings.Contains(out, "undo") || !strings.Contains(out, "8:08") {
		t.Errorf("FormatStreamTable:\n%s", out)
	}
}

// TestStreamRendererLoadCorruptCount: a counter count read from a corrupt
// stream ends the load at the end of the stream, not after that many
// iterations of an already-failed decoder.
func TestStreamRendererLoadCorruptCount(t *testing.T) {
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	enc.Section("tvr.StreamRenderer")
	enc.Uvarint(1 << 62) // counters that never follow
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the trailer too, so the stream ends right after the count.
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- NewStreamRenderer(nil).LoadState(dec) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("renderer state with missing counters loaded without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LoadState still running 10 s after the stream ended")
	}
}
