package tvr

// Micro-benchmark guarding the relation's keyed-apply hot path: folding a
// data event into the bag encodes the row key into the relation's reusable
// scratch buffer and looks the entry up allocation-free; the key string is
// only materialized when a row first enters the bag. Run with -benchmem.

import (
	"testing"

	"repro/internal/types"
)

// BenchmarkKeyedApply alternates inserts and deletes over a fixed working set
// of rows, the steady-state shape of a materialized aggregate output.
func BenchmarkKeyedApply(b *testing.B) {
	rows := make([]types.Row, 256)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i) * 1.5),
			types.NewString("abcdefghij"),
			types.NewTimestamp(types.Time(i * 1000)),
		}
	}
	r := NewRelation()
	for _, row := range rows {
		r.Insert(row) // keep one resident copy so deletes never underflow
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Insert a row, then delete that same copy on the next iteration.
		row := rows[(i/2)%len(rows)]
		if i%2 == 0 {
			r.Insert(row)
		} else if err := r.Delete(row); err != nil {
			b.Fatal(err)
		}
	}
}

// churnRows is the working set of BenchmarkRelationChurn and
// TestRelationChurnAllocs.
func churnRows() []types.Row {
	rows := make([]types.Row, 256)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("abcdefghij")}
	}
	return rows
}

// BenchmarkRelationChurn folds rows that leave the bag and re-enter it, the
// shape of a retraction-heavy output folded by a resident read: each
// iteration inserts the whole working set, then deletes it again. The bag
// forgets each row at zero, and TestRelationChurnAllocs pins the allocations.
func BenchmarkRelationChurn(b *testing.B) {
	rows := churnRows()
	ins := make(Changelog, len(rows))
	del := make(Changelog, len(rows))
	for i, row := range rows {
		ins[i], del[i] = InsertEvent(0, row), DeleteEvent(0, row)
	}
	r := NewRelation()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.ApplyOwned(ins); err != nil {
			b.Fatal(err)
		}
		if err := r.ApplyOwned(del); err != nil {
			b.Fatal(err)
		}
	}
}
