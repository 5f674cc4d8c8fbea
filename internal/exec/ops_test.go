package exec

// Operator-level regressions: a constant relation is complete, and DISTINCT
// and the set operations hold state only for rows that are still live.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// TestValuesInputIsComplete: a VALUES input asserts completeness at open, so
// a UNION with one reports the other input's watermark instead of holding
// the merged watermark at -inf, and Close finishes it with the scans, so the
// union finishes too.
func TestValuesInputIsComplete(t *testing.T) {
	at100 := 100 * types.Time(types.Second)
	for _, c := range []struct {
		sql    string
		wantWM types.Time
	}{
		{`SELECT k FROM S`, at100},
		{`SELECT k FROM S UNION ALL SELECT 7 AS k`, at100},
		{`SELECT 7 AS k`, types.MaxTime},
	} {
		p, err := Compile(planRechunkSQL(t, c.sql))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		if err := p.Feed([]Source{{Name: "S", Log: tvr.Changelog{
			tvr.InsertEvent(at100, types.Row{types.NewInt(1), types.NewInt(2), types.NewTimestamp(at100)}),
			tvr.WatermarkEvent(at100, at100),
		}}}); err != nil {
			t.Fatal(err)
		}
		if got := p.OutputWatermark(); got != c.wantWM {
			t.Errorf("%s: output watermark %s, want %s", c.sql, got, c.wantWM)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		for _, op := range p.allOps {
			if u, ok := op.(*unionOp); ok && u.finished != u.inputs {
				t.Errorf("%s: Close finished %d of the union's %d inputs", c.sql, u.finished, u.inputs)
			}
		}
	}
}

// TestDistinctAndSetOpsForgetRetractedRows: once every row's multiplicities
// return to 0, DISTINCT and INTERSECT/EXCEPT [ALL] hold no state, and their
// checkpoint bytes equal a fresh operator's; a retraction of an absent row
// fails and leaves nothing behind. A snapshot that still carries a row at
// multiplicity 0 loads, and the row is dropped.
func TestDistinctAndSetOpsForgetRetractedRows(t *testing.T) {
	type stateful interface {
		stateSaver
		statser
	}
	type family struct {
		name string
		mk   func() (stateful, []sink)
		zero func(enc *checkpoint.Encoder) // writes state holding one row at multiplicity 0
	}
	families := []family{{
		name: "DISTINCT",
		mk: func() (stateful, []sink) {
			d := &distinctOp{out: &nullSink{}}
			return d, []sink{d}
		},
		zero: func(enc *checkpoint.Encoder) {
			enc.Uvarint(1)
			enc.Row(ints(9))
			enc.Int(0)
		},
	}}
	for _, k := range []plan.SetOp{
		{Op: sqlparser.Intersect}, {Op: sqlparser.Intersect, All: true},
		{Op: sqlparser.Except}, {Op: sqlparser.Except, All: true},
	} {
		x := k
		families = append(families, family{
			name: fmt.Sprintf("%s all=%v", x.Op, x.All),
			mk: func() (stateful, []sink) {
				s := newSetOp(&x, &nullSink{})
				return s, []sink{s.port(0), s.port(1)}
			},
			zero: func(enc *checkpoint.Encoder) {
				newSetOp(&x, &nullSink{}).saveMergeState(enc)
				enc.Uvarint(1)
				enc.Row(ints(9))
				enc.Int(0)
				enc.Int(0)
				enc.Int(0)
			},
		})
	}
	for _, f := range families {
		t.Run(f.name, func(t *testing.T) {
			op, inputs := f.mk()
			fresh, _ := f.mk()
			want := encodeState(t, fresh)
			for i := 0; i < 1000; i++ {
				row := ints(int64(i%37), int64(i))
				pt := types.Time(i)
				for _, kind := range []tvr.EventKind{tvr.Insert, tvr.Delete} {
					for _, in := range inputs {
						if err := push(in, tvr.Event{Ptime: pt, Kind: kind, Row: row}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if n := opStats(op).StateRows; n != 0 {
				t.Fatalf("after 1000 insert+delete pairs StateRows = %d, want 0", n)
			}
			if !bytes.Equal(encodeState(t, op), want) {
				t.Fatal("fully retracted state saves differently from a fresh operator")
			}
			if err := push(inputs[0], tvr.DeleteEvent(1000, ints(5))); err == nil {
				t.Fatal("retraction of an absent row succeeded")
			}
			if n := opStats(op).StateRows; n != 0 || !bytes.Equal(encodeState(t, op), want) {
				t.Fatalf("a failed retraction left state behind (StateRows = %d)", n)
			}

			var old bytes.Buffer
			enc := checkpoint.NewEncoder(&old)
			f.zero(enc)
			if err := enc.Close(); err != nil {
				t.Fatal(err)
			}
			dec, err := checkpoint.NewDecoder(bytes.NewReader(old.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			loaded, _ := f.mk()
			if err := loaded.LoadState(dec); err != nil {
				t.Fatalf("state with a zero-multiplicity row no longer loads: %v", err)
			}
			if err := dec.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeState(t, loaded), want) {
				t.Fatal("a zero-multiplicity row survived LoadState")
			}
		})
	}
}
