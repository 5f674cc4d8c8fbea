package exec_test

// Tests for two-stage (partial/final) aggregation: plans whose GROUP BY
// re-keys incompatibly with the inherited hash routing now run partitioned,
// with per-partition partial accumulators merged by a final aggregate in the
// serial tail. Every test asserts byte-identical equivalence with serial
// execution — the engine's one non-negotiable contract — over shapes chosen
// to stress the merge: retractions that empty a partial group, late data
// after watermark-driven completion, AVG/MIN/MAX merge arithmetic, and
// random Feed splits.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// rekeyAgg aggregates by the price-bucket column (index 1 mod is applied by
// the caller's data), which does NOT preserve a key-partitioned routing on
// column 0 — the classic re-keying shape that forces partial/final stages
// when the scan is already hash-routed by a downstream-created constraint.
// Grouping by a non-provenance expression (price+0 via a BinOp would lose
// provenance) is approximated more simply: group by a column of a source
// routed by full-row hash.
func rekeyAgg(aggs []plan.AggCall, cols []types.Column) *plan.PlannedQuery {
	sch := append([]types.Column{{Name: "g", Kind: types.KindInt64}}, cols...)
	return &plan.PlannedQuery{Root: &plan.Aggregate{
		Input: scanNode(),
		// Group by price (col 1) through an arithmetic expression, which
		// has no scan provenance: the partitioning analysis must fall
		// back to a full-row-hashed partial stage.
		Keys: []plan.Scalar{mustBinOp(col(1, types.KindInt64), intConst(0))},
		Aggs: aggs,
		Sch:  types.NewSchema(sch...),
	}}
}

func mustBinOp(l, r plan.Scalar) plan.Scalar {
	op, err := plan.NewBinOp(sqlparser.OpAdd, l, r)
	if err != nil {
		panic(err)
	}
	return op
}

// TestTwoStageAggEquivalence: a re-keyed aggregation with every mergeable
// accumulator kind (COUNT(*), COUNT, SUM, AVG, MIN, MAX) produces a
// byte-identical changelog, table, and stream to serial execution, under
// heavy retractions (genLog deletes ~10% of live rows).
func TestTwoStageAggEquivalence(t *testing.T) {
	aggs := []plan.AggCall{
		{Kind: plan.AggCountStar, K: types.KindInt64},
		{Kind: plan.AggCount, Arg: col(0, types.KindInt64), K: types.KindInt64},
		{Kind: plan.AggSum, Arg: col(0, types.KindInt64), K: types.KindInt64},
		{Kind: plan.AggAvg, Arg: col(0, types.KindInt64), K: types.KindFloat64},
		{Kind: plan.AggMin, Arg: col(0, types.KindInt64), K: types.KindInt64},
		{Kind: plan.AggMax, Arg: col(0, types.KindInt64), K: types.KindInt64},
	}
	cols := []types.Column{
		{Name: "n", Kind: types.KindInt64},
		{Name: "nk", Kind: types.KindInt64},
		{Name: "sum", Kind: types.KindInt64},
		{Name: "avg", Kind: types.KindFloat64},
		{Name: "min", Kind: types.KindInt64},
		{Name: "max", Kind: types.KindInt64},
	}
	mk := func() *plan.PlannedQuery { return rekeyAgg(aggs, cols) }
	if p, err := plan.DerivePartitioning(mk()); err != nil {
		t.Fatalf("expected two-stage partitioning: %v", err)
	} else if !p.IsTwoStage() {
		t.Fatalf("expected two-stage, got %s", p.Describe())
	}
	sources := []exec.Source{{Name: "s", Log: genLog(3000, 11)}}
	for _, parts := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			serial, parallel := runBoth(t, mk, sources, parts, types.MaxTime)
			assertSameResult(t, serial, parallel)
		})
	}
}

// TestTwoStageRetractionEmptiesGroup: deleting every row of a group drives
// the merged live count to zero — the final stage must retract the group's
// output row (and not resurrect it) exactly as the serial aggregate does,
// even though individual partitions may see inserts and deletes in
// different relative orders than the group total suggests.
func TestTwoStageRetractionEmptiesGroup(t *testing.T) {
	aggs := []plan.AggCall{
		{Kind: plan.AggCountStar, K: types.KindInt64},
		{Kind: plan.AggMax, Arg: col(0, types.KindInt64), K: types.KindInt64},
	}
	cols := []types.Column{
		{Name: "n", Kind: types.KindInt64},
		{Name: "max", Kind: types.KindInt64},
	}
	mk := func() *plan.PlannedQuery { return rekeyAgg(aggs, cols) }
	// Two groups (price 7 and 8); group 7 fills up then empties completely,
	// twice, with distinct row identities spread across partitions by the
	// full-row hash.
	var log tvr.Changelog
	pt := types.Time(0)
	add := func(kind tvr.EventKind, key, price int64) {
		pt++
		ev := tvr.Event{Ptime: pt, Kind: kind, Row: row(key, price, types.Time(100))}
		log = append(log, ev)
	}
	for round := 0; round < 2; round++ {
		for k := int64(0); k < 8; k++ {
			add(tvr.Insert, k, 7)
		}
		add(tvr.Insert, 100, 8)
		for k := int64(0); k < 8; k++ {
			add(tvr.Delete, k, 7)
		}
	}
	sources := []exec.Source{{Name: "s", Log: log}}
	serial, parallel := runBoth(t, mk, sources, 4, types.MaxTime)
	assertSameResult(t, serial, parallel)
	// The empty group must genuinely end retracted in the snapshot.
	for _, r := range serial.TableRows() {
		if r[0].Int() == 7 {
			t.Fatalf("group 7 should have been retracted away, table still has %s", r)
		}
	}
}

// TestTwoStageLateDataAfterCompletion: once the merged watermark passes an
// event-time group key, both the partial stage (which drops the late row
// before it reaches the exchange) and the final stage (which has freed the
// merged state) treat late input exactly as the serial aggregate: dropped,
// with the already-emitted output untouched.
func TestTwoStageLateDataAfterCompletion(t *testing.T) {
	// An inner per-(key, ts) count creates the hash constraint on (key,
	// ts); the outer per-ts rollup drops the key from its grouping, so it
	// re-keys incompatibly and runs partial/final. Both levels carry an
	// event-time grouping key, so the watermark completes groups in the
	// partition chains (inner + partial outer) and in the serial tail
	// (final outer) alike.
	mkAgg := func() *plan.PlannedQuery {
		inner := &plan.Aggregate{
			Input: scanNode(),
			Keys:  []plan.Scalar{col(0, types.KindInt64), col(2, types.KindTimestamp)},
			Aggs:  []plan.AggCall{{Kind: plan.AggCountStar, K: types.KindInt64}},
			Sch: types.NewSchema(
				types.Column{Name: "key", Kind: types.KindInt64},
				types.Column{Name: "ts", Kind: types.KindTimestamp, EventTime: true},
				types.Column{Name: "n", Kind: types.KindInt64},
			),
		}
		return &plan.PlannedQuery{
			Root: &plan.Aggregate{
				Input: inner,
				Keys:  []plan.Scalar{col(1, types.KindTimestamp)},
				Aggs: []plan.AggCall{
					{Kind: plan.AggSum, Arg: col(2, types.KindInt64), K: types.KindInt64},
					{Kind: plan.AggCountStar, K: types.KindInt64},
				},
				Sch: types.NewSchema(
					types.Column{Name: "ts", Kind: types.KindTimestamp, EventTime: true},
					types.Column{Name: "total", Kind: types.KindInt64},
					types.Column{Name: "groups", Kind: types.KindInt64},
				),
			},
			EmitKeyIdxs: []int{0},
		}
	}
	if p, err := plan.DerivePartitioning(mkAgg()); err != nil || !p.IsTwoStage() {
		t.Fatalf("want two-stage, got p=%v err=%v", p, err)
	}
	log := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 5, 100)),
		tvr.InsertEvent(2, row(2, 5, 100)),
		tvr.InsertEvent(3, row(3, 5, 200)),
		tvr.WatermarkEvent(4, 150),         // completes the ts=100 groups
		tvr.InsertEvent(5, row(4, 5, 100)), // late: dropped in the partials
		tvr.InsertEvent(6, row(5, 5, 200)), // on time
	}
	sources := []exec.Source{{Name: "s", Log: log}}
	serial, parallel := runBoth(t, mkAgg, sources, 4, types.MaxTime)
	assertSameResult(t, serial, parallel)

	// And with EMIT AFTER WATERMARK stacked on top, the tail's
	// materialization operator sees the same merged stream.
	mkEmit := func() *plan.PlannedQuery {
		pq := mkAgg()
		pq.Emit = plan.EmitSpec{AfterWatermark: true}
		return pq
	}
	serial, parallel = runBoth(t, mkEmit, sources, 4, types.MaxTime)
	assertSameResult(t, serial, parallel)
}

// TestTwoStageGlobalAggregate: a keyless aggregation — one row over the whole
// input, initial row emitted at open — runs partitioned with full-row-hashed
// partials and matches serial output byte for byte.
func TestTwoStageGlobalAggregate(t *testing.T) {
	mk := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Aggregate{
			Input: scanNode(),
			Aggs: []plan.AggCall{
				{Kind: plan.AggCountStar, K: types.KindInt64},
				{Kind: plan.AggMin, Arg: col(1, types.KindInt64), K: types.KindInt64},
				{Kind: plan.AggAvg, Arg: col(1, types.KindInt64), K: types.KindFloat64},
			},
			Sch: types.NewSchema(
				types.Column{Name: "n", Kind: types.KindInt64},
				types.Column{Name: "min", Kind: types.KindInt64},
				types.Column{Name: "avg", Kind: types.KindFloat64},
			),
		}}
	}
	sources := []exec.Source{{Name: "s", Log: genLog(2500, 17)}}
	serial, parallel := runBoth(t, mk, sources, 4, types.MaxTime)
	assertSameResult(t, serial, parallel)
	if len(serial.TableRows()) != 1 {
		t.Fatalf("global aggregate should produce exactly one row, got %d", len(serial.TableRows()))
	}
}

// TestTwoStageFeedSplits: the incremental lifecycle property — any random
// ptime-axis Feed split is byte-identical to one-shot serial execution — on a
// two-stage plan, directly exercising partial snapshots crossing Drain
// boundaries and pipelined round overlap inside large batches.
func TestTwoStageFeedSplits(t *testing.T) {
	aggs := []plan.AggCall{
		{Kind: plan.AggAvg, Arg: col(0, types.KindInt64), K: types.KindFloat64},
		{Kind: plan.AggMin, Arg: col(0, types.KindInt64), K: types.KindInt64},
		{Kind: plan.AggMax, Arg: col(0, types.KindInt64), K: types.KindInt64},
	}
	cols := []types.Column{
		{Name: "avg", Kind: types.KindFloat64},
		{Name: "min", Kind: types.KindInt64},
		{Name: "max", Kind: types.KindInt64},
	}
	mk := func() *plan.PlannedQuery { return rekeyAgg(aggs, cols) }
	sources := []exec.Source{{Name: "s", Log: genLog(1500, 13)}}

	serialPipe, err := exec.Compile(mk())
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialPipe.Run(sources, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}

	pts := splitPointsOf(sources)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		pp, err := exec.CompilePartitioned(mk(), 3)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cuts := randomCuts(rng, pts, 1+rng.Intn(8))
		drained := feedInBatches(t, pp, sources, cuts, types.MaxTime)
		assertDrainedMatchesRun(t, fmt.Sprintf("trial %d", trial), drained, want)
	}
}

// splitPointsOf mirrors lifecycle_test's splitPoints for locally built logs.
func splitPointsOf(sources []exec.Source) []types.Time {
	seen := map[types.Time]bool{}
	var pts []types.Time
	for _, s := range sources {
		for _, ev := range s.Log {
			if !seen[ev.Ptime] {
				seen[ev.Ptime] = true
				pts = append(pts, ev.Ptime)
			}
		}
	}
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	return pts
}
