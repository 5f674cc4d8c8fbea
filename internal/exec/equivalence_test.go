package exec_test

// One-shot versus incremental execution over hand-built plans chosen to
// stress aggregation and join state: grouped, re-keyed and keyless
// aggregates under heavy retraction, groups emptied and refilled, late data
// after watermark completion, EMIT AFTER WATERMARK, horizon truncation, and
// joins with null-padded outer rows. Every test runs the plan one-shot, then
// feeds the same changelogs to a fresh pipeline in `parts` ptime-contiguous
// Feed calls, and requires the drained output — and the stream and table
// renderings folded from it — to be byte-identical to the one-shot Run.
// Where a shape has an independent expectation (a brute-force fold of the
// input, a group that must end retracted, a fixed cardinality), the one-shot
// result is checked against it too.

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

// genLog builds a deterministic changelog over nKeys keys with interleaved
// watermarks and a sprinkling of retractions.
func genLog(n, nKeys int) tvr.Changelog {
	var log tvr.Changelog
	state := int64(12345)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		v := (state >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	var live []types.Row
	for i := 0; i < n; i++ {
		pt := types.Time(int64(i) + 1)
		et := types.Time(int64(i/10) * 10)
		if len(live) > 4 && next(10) == 0 {
			// Retract a previously inserted row (and forget it, so it is
			// never retracted twice).
			vi := next(int64(len(live)))
			victim := live[vi]
			live = append(live[:vi], live[vi+1:]...)
			log = append(log, tvr.DeleteEvent(pt, victim))
			continue
		}
		r := row(next(int64(nKeys)), next(1000), et)
		live = append(live, r)
		log = append(log, tvr.InsertEvent(pt, r))
		if i%97 == 96 {
			log = append(log, tvr.WatermarkEvent(pt, et-20))
		}
	}
	return log
}

// liveRows folds a changelog into the rows still present at its end.
func liveRows(log tvr.Changelog) []types.Row {
	var rows []types.Row
	for _, ev := range log {
		switch ev.Kind {
		case tvr.Insert:
			rows = append(rows, ev.Row)
		case tvr.Delete:
			for i, r := range rows {
				if r.Equal(ev.Row) {
					rows = append(rows[:i], rows[i+1:]...)
					break
				}
			}
		}
	}
	return rows
}

// evenCuts picks parts-1 evenly spaced split points from pts, so a Feed
// along them delivers the input in parts ptime-contiguous batches.
func evenCuts(pts []types.Time, parts int) []types.Time {
	var cuts []types.Time
	for k := 1; k < parts; k++ {
		if i := len(pts) * k / parts; i < len(pts) {
			cuts = append(cuts, pts[i])
		}
	}
	return cuts
}

// runBoth runs the plan mk builds one-shot and, on a fresh pipeline, fed in
// parts ptime-contiguous batches; it asserts the incremental drains match
// the one-shot result and returns that result. Plans are rebuilt per run
// because pipelines are single-use and share no state.
func runBoth(t *testing.T, mk func() *plan.PlannedQuery, sources []exec.Source, parts int, upTo types.Time) *exec.Result {
	t.Helper()
	oneShot, err := exec.Compile(mk())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := oneShot.Run(sources, upTo)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	cuts := evenCuts(splitPoints(trimSources(sources, upTo)), parts)
	drained := feedInBatches(t, compileDriver(t, mk()), sources, cuts, upTo)
	assertDrainedMatchesRun(t, fmt.Sprintf("parts=%d", parts), drained, want)
	return want
}

// assertTable compares a result's table rendering with expected rows, in
// any order.
func assertTable(t *testing.T, res *exec.Result, want []types.Row) {
	t.Helper()
	got := res.TableRows()
	if len(got) != len(want) {
		t.Fatalf("table has %d rows, want %d", len(got), len(want))
	}
	used := make([]bool, len(want))
next:
	for _, g := range got {
		for i, w := range want {
			if !used[i] && g.Equal(w) {
				used[i] = true
				continue next
			}
		}
		t.Fatalf("unexpected table row %s", g)
	}
}

// TestPartitionedAggregateEquivalence: grouped aggregation on the key column
// matches a brute-force fold of the input, and feeding it in 2, 4 or 7
// parts reproduces the one-shot output byte for byte.
func TestPartitionedAggregateEquivalence(t *testing.T) {
	mk := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Aggregate{
			Input: scanNode(),
			Keys:  []plan.Scalar{col(0, types.KindInt64)},
			Aggs: []plan.AggCall{
				{Kind: plan.AggSum, Arg: col(1, types.KindInt64), K: types.KindInt64},
				{Kind: plan.AggCountStar, K: types.KindInt64},
				{Kind: plan.AggMax, Arg: col(1, types.KindInt64), K: types.KindInt64},
			},
			Sch: types.NewSchema(
				types.Column{Name: "key", Kind: types.KindInt64},
				types.Column{Name: "sum", Kind: types.KindInt64},
				types.Column{Name: "n", Kind: types.KindInt64},
				types.Column{Name: "max", Kind: types.KindInt64},
			),
		}}
	}
	log := genLog(3000, 37)
	type acc struct{ sum, n, max int64 }
	groups := map[int64]*acc{}
	for _, r := range liveRows(log) {
		k, p := r[0].Int(), r[1].Int()
		a := groups[k]
		if a == nil {
			a = &acc{max: p}
			groups[k] = a
		}
		a.sum += p
		a.n++
		a.max = max(a.max, p)
	}
	var want []types.Row
	for k, a := range groups {
		want = append(want, types.Row{types.NewInt(k), types.NewInt(a.sum), types.NewInt(a.n), types.NewInt(a.max)})
	}
	sources := []exec.Source{{Name: "s", Log: log}}
	for _, parts := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			assertTable(t, runBoth(t, mk, sources, parts, types.MaxTime), want)
		})
	}
}

// TestPartitionedJoinEquivalence: an equi join, inner and left outer, fed
// in parts reproduces the one-shot output, null-padded outer rows included.
func TestPartitionedJoinEquivalence(t *testing.T) {
	for _, kind := range []sqlparser.JoinKind{sqlparser.InnerJoin, sqlparser.LeftJoin} {
		t.Run(kind.String(), func(t *testing.T) {
			mk := func() *plan.PlannedQuery { return twoSourceJoin(kind) }
			rLog := tvr.Changelog{}
			for i := 0; i < 500; i++ {
				rLog = append(rLog, tvr.InsertEvent(types.Time(2*i+1), tagRow(int64(i%23), fmt.Sprintf("t%d", i%5))))
			}
			sources := []exec.Source{
				{Name: "s", Log: genLog(2000, 23)},
				{Name: "r", Log: rLog},
			}
			res := runBoth(t, mk, sources, 4, types.MaxTime)
			if len(res.TableRows()) == 0 {
				t.Fatal("join produced no rows; test is vacuous")
			}
		})
	}
}

// TestPartitionedStatelessRoundRobin: a stateless filter keeps exactly the
// live input rows that satisfy it, one-shot and fed in parts.
func TestPartitionedStatelessRoundRobin(t *testing.T) {
	mk := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Filter{
			Input: scanNode(),
			Cond:  &plan.BinOp{Op: sqlparser.OpGt, L: col(1, types.KindInt64), R: intConst(500), K: types.KindBool},
		}}
	}
	log := genLog(2000, 11)
	var want []types.Row
	for _, r := range liveRows(log) {
		if r[1].Int() > 500 {
			want = append(want, r)
		}
	}
	res := runBoth(t, mk, []exec.Source{{Name: "s", Log: log}}, 4, types.MaxTime)
	assertTable(t, res, want)
}

// TestPartitionedEmitAfterWatermark: watermark-delayed EMIT output fed in
// parts matches the one-shot output byte for byte.
func TestPartitionedEmitAfterWatermark(t *testing.T) {
	mk := func() *plan.PlannedQuery {
		a := eventTimeAgg()
		return &plan.PlannedQuery{Root: a, EmitKeyIdxs: []int{0}, Emit: plan.EmitSpec{AfterWatermark: true}}
	}
	runBoth(t, mk, []exec.Source{{Name: "s", Log: genLog(2000, 13)}}, 4, types.MaxTime)
}

// TestPartitionedHorizonAndLateData: truncating at a processing-time horizon
// (the table-at-time rendering) behaves identically fed in parts, late
// drops included.
func TestPartitionedHorizonAndLateData(t *testing.T) {
	mk := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: eventTimeAgg(), EmitKeyIdxs: []int{0}}
	}
	runBoth(t, mk, []exec.Source{{Name: "s", Log: genLog(2000, 13)}}, 4, types.Time(900))
}

// TestPartitionedFallbackClassification: shapes with no key to route on — a
// constant relation, a keyless aggregate, a keyless cross join — compile and
// run like any other plan, with the cardinality the shape implies.
func TestPartitionedFallbackClassification(t *testing.T) {
	values := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Values{
			Rows: []types.Row{{types.NewInt(1)}},
			Sch:  types.NewSchema(types.Column{Name: "x", Kind: types.KindInt64}),
		}}
	}
	if res := runBoth(t, values, nil, 1, types.MaxTime); len(res.TableRows()) != 1 {
		t.Errorf("constant relation: %d rows, want 1", len(res.TableRows()))
	}
	global := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Aggregate{
			Input: scanNode(),
			Aggs:  []plan.AggCall{{Kind: plan.AggCountStar, K: types.KindInt64}},
			Sch:   types.NewSchema(types.Column{Name: "n", Kind: types.KindInt64}),
		}}
	}
	log := genLog(500, 7)
	res := runBoth(t, global, []exec.Source{{Name: "s", Log: log}}, 4, types.MaxTime)
	assertTable(t, res, []types.Row{{types.NewInt(int64(len(liveRows(log))))}})
	cross := func() *plan.PlannedQuery {
		return &plan.PlannedQuery{Root: &plan.Join{
			Left:  scanNode(),
			Right: &plan.Scan{Name: "r", Sch: bidSchema(), Stream: true},
			Kind:  sqlparser.CrossJoin,
			Sch:   bidSchema().WithoutEventTime().Concat(bidSchema().WithoutEventTime()),
		}}
	}
	sLog, rLog := genLog(60, 5), genLog(40, 3)
	res = runBoth(t, cross, []exec.Source{{Name: "s", Log: sLog}, {Name: "r", Log: rLog}}, 4, types.MaxTime)
	if got, want := len(res.TableRows()), len(liveRows(sLog))*len(liveRows(rLog)); got != want {
		t.Errorf("cross join: %d rows, want %d", got, want)
	}
}

// rekeyAgg groups by an arithmetic expression over the price column
// (price+0), which carries no scan provenance: the aggregate re-keys its
// input instead of inheriting the scan's key.
func rekeyAgg(aggs []plan.AggCall, cols []types.Column) *plan.PlannedQuery {
	sch := append([]types.Column{{Name: "g", Kind: types.KindInt64}}, cols...)
	return &plan.PlannedQuery{Root: &plan.Aggregate{
		Input: scanNode(),
		Keys:  []plan.Scalar{mustBinOp(col(1, types.KindInt64), intConst(0))},
		Aggs:  aggs,
		Sch:   types.NewSchema(sch...),
	}}
}

func mustBinOp(l, r plan.Scalar) plan.Scalar {
	op, err := plan.NewBinOp(sqlparser.OpAdd, l, r)
	if err != nil {
		panic(err)
	}
	return op
}

// TestTwoStageAggEquivalence: a re-keyed aggregation with every accumulator
// kind (COUNT(*), COUNT, SUM, AVG, MIN, MAX) matches a brute-force fold of
// the input under heavy retractions (genLog deletes ~10% of live rows), and
// feeding it in 2, 4 or 7 parts reproduces the one-shot output.
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
	log := genLog(3000, 11)
	type acc struct{ n, sum, min, max int64 }
	groups := map[int64]*acc{}
	for _, r := range liveRows(log) {
		g, k := r[1].Int(), r[0].Int()
		a := groups[g]
		if a == nil {
			a = &acc{min: k, max: k}
			groups[g] = a
		}
		a.n++
		a.sum += k
		a.min, a.max = min(a.min, k), max(a.max, k)
	}
	var want []types.Row
	for g, a := range groups {
		want = append(want, types.Row{
			types.NewInt(g), types.NewInt(a.n), types.NewInt(a.n), types.NewInt(a.sum),
			types.NewFloat(float64(a.sum) / float64(a.n)), types.NewInt(a.min), types.NewInt(a.max),
		})
	}
	sources := []exec.Source{{Name: "s", Log: log}}
	for _, parts := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			assertTable(t, runBoth(t, mk, sources, parts, types.MaxTime), want)
		})
	}
}

// TestTwoStageRetractionEmptiesGroup: deleting every row of a group drives
// its live count to zero — the aggregate must retract the group's output row
// (and not resurrect it), even when the group fills and empties twice with
// distinct row identities.
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
	// twice.
	var log tvr.Changelog
	pt := types.Time(0)
	add := func(kind tvr.EventKind, key, price int64) {
		pt++
		log = append(log, tvr.Event{Ptime: pt, Kind: kind, Row: row(key, price, types.Time(100))})
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
	res := runBoth(t, mk, []exec.Source{{Name: "s", Log: log}}, 4, types.MaxTime)
	// The emptied group must genuinely end retracted; group 8 holds the two
	// key-100 rows.
	assertTable(t, res, []types.Row{{types.NewInt(8), types.NewInt(2), types.NewInt(100)}})
}

// TestTwoStageLateDataAfterCompletion: an outer per-ts rollup over an inner
// per-(key, ts) count, both grouped by event time. Once the watermark passes
// ts=100 both levels complete the group, so a late ts=100 row is dropped and
// the already-emitted output stays untouched — with and without EMIT AFTER
// WATERMARK stacked on top.
func TestTwoStageLateDataAfterCompletion(t *testing.T) {
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
	log := tvr.Changelog{
		tvr.InsertEvent(1, row(1, 5, 100)),
		tvr.InsertEvent(2, row(2, 5, 100)),
		tvr.InsertEvent(3, row(3, 5, 200)),
		tvr.WatermarkEvent(4, 150),         // completes the ts=100 groups
		tvr.InsertEvent(5, row(4, 5, 100)), // late: dropped
		tvr.InsertEvent(6, row(5, 5, 200)), // on time
	}
	sources := []exec.Source{{Name: "s", Log: log}}
	want := []types.Row{
		{types.NewTimestamp(100), types.NewInt(2), types.NewInt(2)},
		{types.NewTimestamp(200), types.NewInt(2), types.NewInt(2)},
	}
	assertTable(t, runBoth(t, mkAgg, sources, 4, types.MaxTime), want)

	mkEmit := func() *plan.PlannedQuery {
		pq := mkAgg()
		pq.Emit = plan.EmitSpec{AfterWatermark: true}
		return pq
	}
	runBoth(t, mkEmit, sources, 4, types.MaxTime)
}

// TestTwoStageGlobalAggregate: a keyless aggregation — one row over the
// whole input, initial row emitted at open — fed in parts matches the
// one-shot output and a brute-force fold.
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
	log := genLog(2500, 17)
	rows := liveRows(log)
	lo, sum := rows[0][1].Int(), int64(0)
	for _, r := range rows {
		lo = min(lo, r[1].Int())
		sum += r[1].Int()
	}
	res := runBoth(t, mk, []exec.Source{{Name: "s", Log: log}}, 4, types.MaxTime)
	assertTable(t, res, []types.Row{{
		types.NewInt(int64(len(rows))), types.NewInt(lo), types.NewFloat(float64(sum) / float64(len(rows))),
	}})
}

// TestTwoStageFeedSplits: the incremental lifecycle property — any random
// ptime-axis Feed split is byte-identical to one-shot execution — on a
// re-keyed AVG/MIN/MAX aggregate.
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
	want, err := compileDriver(t, mk()).Run(sources, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	pts := splitPoints(sources)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 4; trial++ {
		cuts := randomCuts(rng, pts, 1+rng.Intn(8))
		drained := feedInBatches(t, compileDriver(t, mk()), sources, cuts, types.MaxTime)
		assertDrainedMatchesRun(t, fmt.Sprintf("trial %d", trial), drained, want)
	}
}
