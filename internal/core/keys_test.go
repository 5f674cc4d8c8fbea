package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tvr"
	"repro/internal/types"
)

// TestBigIntKeysDoNotCollide is the reproducer for BIGINT values beyond
// 2^53, which once shared a key with their float64 rounding: a table holding
// 9007199254740992 and 9007199254740993 grouped them into one group with
// COUNT 2, kept one row under DISTINCT, and even returned 9007199254740992
// twice for a plain projection, because the bag kept the first
// representative. Keys now hold such integers exactly, while an integral
// DOUBLE still shares its BIGINT's key (the second half of the test).
// Mixed-kind Value.Equal beyond 2^53 stays lossy: it compares through
// float64, so BIGINT 2^53+1 still Equals DOUBLE 2^53.
func TestBigIntKeysDoNotCollide(t *testing.T) {
	const big = int64(1) << 53
	e := core.NewEngine()
	sch := types.NewSchema(
		types.Column{Name: "x", Kind: types.KindInt64},
		types.Column{Name: "d", Kind: types.KindFloat64},
	)
	if err := e.RegisterTable("T", sch); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("T", tvr.Changelog{
		tvr.InsertEvent(1, types.Row{types.NewInt(big), types.NewFloat(float64(big + 2))}),
		tvr.InsertEvent(2, types.Row{types.NewInt(big + 1), types.NewFloat(1)}),
		tvr.InsertEvent(3, types.Row{types.NewInt(big + 2), types.NewFloat(1)}),
	}); err != nil {
		t.Fatal(err)
	}
	query := func(sql string) []types.Row {
		t.Helper()
		res, err := e.QueryTable(sql, 10)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows
	}
	ints := func(rows []types.Row, col int) map[int64]int {
		out := map[int64]int{}
		for _, r := range rows {
			out[r[col].Int()]++
		}
		return out
	}
	want := map[int64]int{big: 1, big + 1: 1, big + 2: 1}
	for _, sql := range []string{"SELECT x FROM T", "SELECT DISTINCT x FROM T"} {
		if got := ints(query(sql), 0); len(got) != 3 || got[big] != 1 || got[big+1] != 1 || got[big+2] != 1 {
			t.Errorf("%s = %v, want %v", sql, got, want)
		}
	}
	groups := query("SELECT x, COUNT(*) AS n FROM T GROUP BY x")
	if len(groups) != 3 {
		t.Fatalf("GROUP BY x returned %d groups %v, want 3", len(groups), groups)
	}
	for _, r := range groups {
		if r[1].Int() != 1 {
			t.Errorf("group %d has COUNT %d, want 1", r[0].Int(), r[1].Int())
		}
	}
	// DOUBLE 2^53+2 converts exactly to BIGINT 2^53+2, so the two still
	// share a key: the UNION ALL of both columns has one DISTINCT row for it.
	union := query("SELECT DISTINCT v FROM (SELECT x AS v FROM T UNION ALL SELECT d AS v FROM T)")
	if len(union) != 4 {
		t.Errorf("DISTINCT over the BIGINT and DOUBLE columns = %v, want 4 rows (1, 2^53, 2^53+1, 2^53+2)", union)
	}
}
