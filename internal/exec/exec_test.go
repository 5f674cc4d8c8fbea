package exec_test

// Unit tests for the operator chains: each test hand-builds a small logical
// plan, pushes a changelog through the compiled pipeline, and asserts the
// exact output delta stream — including retractions, late-data drops, and
// watermark-driven state cleanup.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// bidSchema is a minimal stream schema: key BIGINT, price BIGINT, ts
// TIMESTAMP (event time).
func bidSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "ts", Kind: types.KindTimestamp, EventTime: true},
	)
}

func row(key, price int64, ts types.Time) types.Row {
	return types.Row{types.NewInt(key), types.NewInt(price), types.NewTimestamp(ts)}
}

func col(idx int, k types.Kind) *plan.ColRef { return &plan.ColRef{Idx: idx, K: k} }

func intConst(v int64) *plan.Const { return &plan.Const{Val: types.NewInt(v)} }

// runPlan compiles and runs a planned query over a single "s" source.
func runPlan(t *testing.T, pq *plan.PlannedQuery, log tvr.Changelog, upTo types.Time) (*exec.Result, exec.Stats) {
	t.Helper()
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := pipe.Run([]exec.Source{{Name: "s", Log: log}}, upTo)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res, pipe.Stats()
}

// fmtLog renders a changelog compactly for exact-sequence assertions.
func fmtLog(log tvr.Changelog) []string {
	out := make([]string, len(log))
	for i, ev := range log {
		out[i] = ev.String()
	}
	return out
}

func assertLog(t *testing.T, got tvr.Changelog, want []string) {
	t.Helper()
	gs := fmtLog(got)
	if len(gs) != len(want) {
		t.Fatalf("got %d events, want %d:\ngot:  %s\nwant: %s",
			len(gs), len(want), strings.Join(gs, "; "), strings.Join(want, "; "))
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Errorf("event %d:\ngot:  %s\nwant: %s", i, gs[i], want[i])
		}
	}
}

func scanNode() *plan.Scan { return &plan.Scan{Name: "s", Sch: bidSchema(), Stream: true} }

// TestFilterProjectRetraction: deterministic predicates and projections
// commute with retractions — a deleted row filters and projects exactly as
// its insert did.
func TestFilterProjectRetraction(t *testing.T) {
	// SELECT key, price * 2 FROM s WHERE price > 3
	filter := &plan.Filter{
		Input: scanNode(),
		Cond:  &plan.BinOp{Op: sqlparser.OpGt, L: col(1, types.KindInt64), R: intConst(3), K: types.KindBool},
	}
	project := &plan.Project{
		Input: filter,
		Exprs: []plan.Scalar{
			col(0, types.KindInt64),
			&plan.BinOp{Op: sqlparser.OpMul, L: col(1, types.KindInt64), R: intConst(2), K: types.KindInt64},
		},
		Sch: types.NewSchema(
			types.Column{Name: "key", Kind: types.KindInt64},
			types.Column{Name: "double", Kind: types.KindInt64},
		),
	}
	pq := &plan.PlannedQuery{Root: project}

	log := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 10, 100)), // passes
		tvr.InsertEvent(2, row(2, 2, 200)),  // filtered out
		tvr.InsertEvent(3, row(3, 7, 300)),  // passes
		tvr.DeleteEvent(4, row(1, 10, 100)), // retraction of a passing row
		tvr.DeleteEvent(5, row(2, 2, 200)),  // retraction of a filtered row: no output
	}
	res, _ := runPlan(t, pq, log, types.MaxTime)
	assertLog(t, res.Log, []string{
		"0:00:00.001 INSERT (1, 20)",
		"0:00:00.003 INSERT (3, 14)",
		"0:00:00.004 DELETE (1, 20)",
	})
	if res.Snapshot.Len() != 1 {
		t.Errorf("snapshot size = %d, want 1", res.Snapshot.Len())
	}
}

// TestAggregateRetraction: grouped aggregation retracts the group's previous
// output row on every change, keeping the output relation pointwise-correct.
func TestAggregateRetraction(t *testing.T) {
	// SELECT key, SUM(price), COUNT(*) FROM s GROUP BY key
	agg := &plan.Aggregate{
		Input: scanNode(),
		Keys:  []plan.Scalar{col(0, types.KindInt64)},
		Aggs: []plan.AggCall{
			{Kind: plan.AggSum, Arg: col(1, types.KindInt64), K: types.KindInt64},
			{Kind: plan.AggCountStar, K: types.KindInt64},
		},
		Sch: types.NewSchema(
			types.Column{Name: "key", Kind: types.KindInt64},
			types.Column{Name: "sum", Kind: types.KindInt64},
			types.Column{Name: "n", Kind: types.KindInt64},
		),
	}
	pq := &plan.PlannedQuery{Root: agg}
	log := tvr.Changelog{
		tvr.InsertEvent(1, row(7, 10, 100)),
		tvr.InsertEvent(2, row(7, 5, 110)),
		tvr.DeleteEvent(3, row(7, 10, 100)), // retract the first bid
		tvr.DeleteEvent(4, row(7, 5, 110)),  // group empties: output row disappears
	}
	res, _ := runPlan(t, pq, log, types.MaxTime)
	assertLog(t, res.Log, []string{
		"0:00:00.001 INSERT (7, 10, 1)",
		"0:00:00.002 DELETE (7, 10, 1)",
		"0:00:00.002 INSERT (7, 15, 2)",
		"0:00:00.003 DELETE (7, 15, 2)",
		"0:00:00.003 INSERT (7, 5, 1)",
		"0:00:00.004 DELETE (7, 5, 1)",
	})
	if res.Snapshot.Len() != 0 {
		t.Errorf("snapshot size = %d, want 0 (group emptied)", res.Snapshot.Len())
	}
}

// TestNegativeZeroGroupsWithZero: -0.0 equals 0.0, so GROUP BY puts both in
// one group, the one the first of them opened.
func TestNegativeZeroGroupsWithZero(t *testing.T) {
	// SELECT x, COUNT(*) FROM s GROUP BY x, x a DOUBLE
	sch := types.NewSchema(
		types.Column{Name: "x", Kind: types.KindFloat64},
		types.Column{Name: "ts", Kind: types.KindTimestamp, EventTime: true},
	)
	agg := &plan.Aggregate{
		Input: &plan.Scan{Name: "s", Sch: sch, Stream: true},
		Keys:  []plan.Scalar{col(0, types.KindFloat64)},
		Aggs:  []plan.AggCall{{Kind: plan.AggCountStar, K: types.KindInt64}},
		Sch: types.NewSchema(
			types.Column{Name: "x", Kind: types.KindFloat64},
			types.Column{Name: "n", Kind: types.KindInt64},
		),
	}
	negZero := types.NewFloat(math.Copysign(0, -1))
	log := tvr.Changelog{
		tvr.InsertEvent(1, types.Row{negZero, types.NewTimestamp(100)}),
		tvr.InsertEvent(2, types.Row{types.NewFloat(0), types.NewTimestamp(110)}),
	}
	res, _ := runPlan(t, &plan.PlannedQuery{Root: agg}, log, types.MaxTime)
	assertLog(t, res.Log, []string{
		"0:00:00.001 INSERT (-0, 1)",
		"0:00:00.002 DELETE (-0, 1)",
		"0:00:00.002 INSERT (-0, 2)",
	})
}

// eventTimeAgg groups by the event-time column, so watermarks complete
// groups: late input is dropped and accumulator state is freed.
func eventTimeAgg() *plan.Aggregate {
	return &plan.Aggregate{
		Input: scanNode(),
		Keys:  []plan.Scalar{col(2, types.KindTimestamp)},
		Aggs:  []plan.AggCall{{Kind: plan.AggCountStar, K: types.KindInt64}},
		Sch: types.NewSchema(
			types.Column{Name: "ts", Kind: types.KindTimestamp, EventTime: true},
			types.Column{Name: "n", Kind: types.KindInt64},
		),
	}
}

// TestAggregateLateDataAndCleanup reproduces the Extension 2 policy: once the
// watermark passes a group's event-time key the group is complete — its state
// is freed and late arrivals are dropped without disturbing the final row.
func TestAggregateLateDataAndCleanup(t *testing.T) {
	pq := &plan.PlannedQuery{Root: eventTimeAgg(), EmitKeyIdxs: []int{0}}
	log := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 1, 100)),
		tvr.InsertEvent(2, row(2, 1, 200)),
		tvr.WatermarkEvent(3, 150),         // completes the ts=100 group
		tvr.InsertEvent(4, row(3, 1, 100)), // late: dropped
		tvr.InsertEvent(5, row(4, 1, 200)), // on time: still counts
	}
	res, stats := runPlan(t, pq, log, types.MaxTime)
	assertLog(t, res.Log, []string{
		"0:00:00.001 INSERT (0:00:00.100, 1)",
		"0:00:00.002 INSERT (0:00:00.200, 1)",
		"0:00:00.005 DELETE (0:00:00.200, 1)",
		"0:00:00.005 INSERT (0:00:00.200, 2)",
	})
	if stats.LateDropped != 1 {
		t.Errorf("LateDropped = %d, want 1", stats.LateDropped)
	}
	if stats.FreedGroups != 1 {
		t.Errorf("FreedGroups = %d, want 1", stats.FreedGroups)
	}
}

// twoSourceJoin builds s JOIN r ON s.key = r.key with the given join kind.
func twoSourceJoin(kind sqlparser.JoinKind) *plan.PlannedQuery {
	left := &plan.Scan{Name: "s", Sch: bidSchema(), Stream: true}
	rightSch := types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "tag", Kind: types.KindString},
	)
	right := &plan.Scan{Name: "r", Sch: rightSch, Stream: true}
	return &plan.PlannedQuery{Root: &plan.Join{
		Left: left, Right: right, Kind: kind,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Sch: bidSchema().WithoutEventTime().Concat(rightSch),
	}}
}

func tagRow(key int64, tag string) types.Row {
	return types.Row{types.NewInt(key), types.NewString(tag)}
}

// TestJoinInnerRetraction: joined outputs are retracted exactly when either
// side's contributing row is retracted.
func TestJoinInnerRetraction(t *testing.T) {
	pq := twoSourceJoin(sqlparser.InnerJoin)
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	sLog := tvr.Changelog{
		tvr.InsertEvent(1, row(7, 10, 100)),
		tvr.InsertEvent(3, row(7, 20, 300)),
	}
	rLog := tvr.Changelog{
		tvr.InsertEvent(2, tagRow(7, "A")),
		tvr.DeleteEvent(4, tagRow(7, "A")),
	}
	res, err := pipe.Run([]exec.Source{{Name: "s", Log: sLog}, {Name: "r", Log: rLog}}, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	assertLog(t, res.Log, []string{
		"0:00:00.002 INSERT (7, 10, 0:00:00.100, 7, A)",
		"0:00:00.003 INSERT (7, 20, 0:00:00.300, 7, A)",
		"0:00:00.004 DELETE (7, 10, 0:00:00.100, 7, A)",
		"0:00:00.004 DELETE (7, 20, 0:00:00.300, 7, A)",
	})
	if res.Snapshot.Len() != 0 {
		t.Errorf("snapshot size = %d, want 0 after retraction", res.Snapshot.Len())
	}
}

// TestLeftJoinNullPadTransitions: an unmatched left row emits a null-padded
// output that is retracted when a match appears and re-emitted when the last
// match goes away.
func TestLeftJoinNullPadTransitions(t *testing.T) {
	pq := twoSourceJoin(sqlparser.LeftJoin)
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	sLog := tvr.Changelog{tvr.InsertEvent(1, row(7, 10, 100))}
	rLog := tvr.Changelog{
		tvr.InsertEvent(2, tagRow(7, "A")),
		tvr.DeleteEvent(3, tagRow(7, "A")),
	}
	res, err := pipe.Run([]exec.Source{{Name: "s", Log: sLog}, {Name: "r", Log: rLog}}, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	assertLog(t, res.Log, []string{
		"0:00:00.001 INSERT (7, 10, 0:00:00.100, NULL, NULL)",
		"0:00:00.002 INSERT (7, 10, 0:00:00.100, 7, A)",
		"0:00:00.002 DELETE (7, 10, 0:00:00.100, NULL, NULL)",
		"0:00:00.003 DELETE (7, 10, 0:00:00.100, 7, A)",
		"0:00:00.003 INSERT (7, 10, 0:00:00.100, NULL, NULL)",
	})
}

// TestEmitAfterWatermarkBuffers: EMIT AFTER WATERMARK holds back the evolving
// result and materializes each event-time group once, when complete; later
// changes to the group are dropped as late.
func TestEmitAfterWatermarkBuffers(t *testing.T) {
	pq := &plan.PlannedQuery{
		Root:        eventTimeAgg(),
		EmitKeyIdxs: []int{0},
		Emit:        plan.EmitSpec{AfterWatermark: true},
	}
	log := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 1, 100)),
		tvr.InsertEvent(2, row(2, 1, 100)),
		tvr.InsertEvent(3, row(3, 1, 200)),
		tvr.WatermarkEvent(4, 150), // ts=100 group complete: materialize (.., 2)
		tvr.InsertEvent(5, row(4, 1, 200)),
		tvr.WatermarkEvent(6, 250), // ts=200 group complete: materialize (.., 2)
	}
	res, stats := runPlan(t, pq, log, types.MaxTime)
	assertLog(t, res.Log, []string{
		"0:00:00.004 INSERT (0:00:00.100, 2)",
		"0:00:00.006 INSERT (0:00:00.200, 2)",
	})
	if stats.FreedGroups != 4 { // 2 in the aggregate + 2 in the emit buffer
		t.Errorf("FreedGroups = %d, want 4", stats.FreedGroups)
	}
}

// TestStatsStateTracking: operator state counters reflect join and aggregate
// state as the paper's state-size experiments require.
func TestStatsStateTracking(t *testing.T) {
	pq := twoSourceJoin(sqlparser.InnerJoin)
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	sLog := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 10, 100)),
		tvr.InsertEvent(2, row(2, 20, 200)),
	}
	rLog := tvr.Changelog{tvr.InsertEvent(3, tagRow(1, "A"))}
	if _, err := pipe.Run([]exec.Source{{Name: "s", Log: sLog}, {Name: "r", Log: rLog}}, types.MaxTime); err != nil {
		t.Fatal(err)
	}
	st := pipe.Stats()
	if st.StateRows != 3 {
		t.Errorf("StateRows = %d, want 3 (2 left + 1 right)", st.StateRows)
	}
	if st.OutputEvents != 1 {
		t.Errorf("OutputEvents = %d, want 1", st.OutputEvents)
	}
	if got := fmt.Sprintf("%d", st.StateGroups); got != "0" {
		t.Errorf("StateGroups = %s, want 0", got)
	}
}
