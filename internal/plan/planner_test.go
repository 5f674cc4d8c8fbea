package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparser"
	"repro/internal/types"
)

// testCatalog is a fixed catalog with the paper's Bid stream plus helpers.
type testCatalog map[string]*Relation

func (c testCatalog) Resolve(name string) (*Relation, error) {
	if r, ok := c[strings.ToLower(name)]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("plan: relation %q not found", name)
}

func newTestCatalog() testCatalog {
	bid := &Relation{
		Name: "Bid",
		Schema: types.NewSchema(
			types.Column{Name: "bidtime", Kind: types.KindTimestamp, EventTime: true},
			types.Column{Name: "price", Kind: types.KindInt64},
			types.Column{Name: "item", Kind: types.KindString},
		),
		Unbounded: true,
	}
	static := &Relation{
		Name: "Category",
		Schema: types.NewSchema(
			types.Column{Name: "id", Kind: types.KindInt64},
			types.Column{Name: "name", Kind: types.KindString},
		),
		Unbounded: false,
	}
	return testCatalog{"bid": bid, "category": static, "bids": bid}
}

func plannerFor(t *testing.T, cfg Config) *Planner {
	t.Helper()
	return New(newTestCatalog(), cfg)
}

func mustPlan(t *testing.T, sql string) *PlannedQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pq, err := plannerFor(t, Config{}).Plan(q)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return pq
}

func planErr(t *testing.T, sql string) error {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	_, err = plannerFor(t, Config{}).Plan(q)
	if err == nil {
		t.Fatalf("plan %q should fail", sql)
	}
	return err
}

func TestPlanSimpleProjectFilter(t *testing.T) {
	pq := mustPlan(t, "SELECT price, item FROM Bid WHERE price > 3")
	proj, ok := pq.Root.(*Project)
	if !ok {
		t.Fatalf("root = %T", pq.Root)
	}
	if proj.Sch.Len() != 2 || proj.Sch.Cols[0].Name != "price" {
		t.Fatalf("schema = %v", proj.Sch)
	}
	if _, ok := proj.Input.(*Filter); !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if !pq.Root.Unbounded() {
		t.Error("stream scan should be unbounded")
	}
}

func TestPlanEventTimePreservation(t *testing.T) {
	// Verbatim forwarding keeps the event-time flag.
	pq := mustPlan(t, "SELECT bidtime, price FROM Bid")
	sch := pq.Root.Schema()
	if !sch.Cols[0].EventTime {
		t.Error("bidtime should stay event-time")
	}
	// Arithmetic erases alignment (Section 5 lesson).
	pq = mustPlan(t, "SELECT bidtime + INTERVAL '1' MINUTE AS t2 FROM Bid")
	if pq.Root.Schema().Cols[0].EventTime {
		t.Error("modified timestamp must lose event-time alignment")
	}
	if pq.Root.Schema().Cols[0].Kind != types.KindTimestamp {
		t.Error("t2 should still be TIMESTAMP")
	}
}

func TestPlanTumbleSchema(t *testing.T) {
	pq := mustPlan(t, `SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) TB`)
	sch := pq.Root.Schema()
	if sch.Len() != 5 {
		t.Fatalf("schema = %v", sch)
	}
	ws := sch.Cols[3]
	we := sch.Cols[4]
	if ws.Name != "wstart" || !ws.EventTime || ws.WmOffset != 10*types.Minute {
		t.Errorf("wstart = %+v", ws)
	}
	if we.Name != "wend" || !we.EventTime || we.WmOffset != 0 {
		t.Errorf("wend = %+v", we)
	}
	// Emit grouping keys = the windowed columns (a row's window identity),
	// not every event-time column.
	if len(pq.EmitKeyIdxs) != 2 || pq.EmitKeyIdxs[0] != 3 || pq.EmitKeyIdxs[1] != 4 {
		t.Errorf("EmitKeyIdxs = %v, want [3 4]", pq.EmitKeyIdxs)
	}
}

func TestPlanPositionalTVFArgs(t *testing.T) {
	pq := mustPlan(t, `SELECT * FROM Tumble(TABLE(Bid), DESCRIPTOR(bidtime), INTERVAL '10' MINUTE)`)
	var w *WindowTVF
	var find func(Node)
	find = func(n Node) {
		if x, ok := n.(*WindowTVF); ok {
			w = x
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(pq.Root)
	if w == nil || w.Dur != 10*types.Minute {
		t.Fatalf("tvf = %+v", w)
	}
}

func TestPlanHopSession(t *testing.T) {
	pq := mustPlan(t, `SELECT * FROM Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE)`)
	find := func(root Node) *WindowTVF {
		var w *WindowTVF
		var rec func(Node)
		rec = func(n Node) {
			if x, ok := n.(*WindowTVF); ok {
				w = x
			}
			for _, c := range n.Children() {
				rec(c)
			}
		}
		rec(root)
		return w
	}
	w := find(pq.Root)
	if w.Fn != HopFn || w.Slide != 5*types.Minute {
		t.Fatalf("hop = %+v", w)
	}
	pq = mustPlan(t, `SELECT * FROM Session(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), gap => INTERVAL '5' MINUTE)`)
	w = find(pq.Root)
	if w.Fn != SessionFn || w.Gap != 5*types.Minute {
		t.Fatalf("session = %+v", w)
	}
	// Session wstart must not be event-time (merges reuse old starts).
	sch := pq.Root.Schema()
	if sch.Cols[3].EventTime {
		t.Error("session wstart must not be event-time")
	}
	if !sch.Cols[4].EventTime {
		t.Error("session wend should be event-time")
	}
}

func TestPlanGroupByEventTime(t *testing.T) {
	pq := mustPlan(t, `SELECT MAX(wstart) wstart, wend, SUM(price) price
		FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE)
		GROUP BY wend`)
	proj := pq.Root.(*Project)
	agg, ok := proj.Input.(*Aggregate)
	if !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if len(agg.Keys) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("agg = %s", agg.Describe())
	}
	if len(agg.EventKeyIdxs()) != 1 {
		t.Fatalf("event keys = %v", agg.EventKeyIdxs())
	}
	// Output: wend is event-time; MAX(wstart) is not.
	sch := pq.Root.Schema()
	if sch.Cols[0].EventTime {
		t.Error("MAX(wstart) must not be event-time")
	}
	if !sch.Cols[1].EventTime {
		t.Error("wend key should stay event-time")
	}
	if sch.Cols[0].Name != "wstart" || sch.Cols[2].Name != "price" {
		t.Errorf("names = %v", sch.Names())
	}
}

func TestPlanExtension2Validation(t *testing.T) {
	err := planErr(t, "SELECT item, SUM(price) FROM Bid GROUP BY item")
	if !strings.Contains(err.Error(), "Extension 2") {
		t.Errorf("error = %v", err)
	}
	// Allowed on bounded tables.
	mustPlan(t, "SELECT name, COUNT(*) FROM Category GROUP BY name")
	// Allowed with the config escape hatch.
	q, _ := sqlparser.Parse("SELECT item, SUM(price) FROM Bid GROUP BY item")
	if _, err := New(newTestCatalog(), Config{AllowUnboundedGroupBy: true}).Plan(q); err != nil {
		t.Errorf("escape hatch failed: %v", err)
	}
	// Global aggregates are permitted (no GROUP BY clause).
	mustPlan(t, "SELECT MAX(price) FROM Bid")
}

func TestPlanPaperQuery7(t *testing.T) {
	sql := `
SELECT MaxBid.wstart wstart, MaxBid.wend wend, Bid.bidtime bidtime, Bid.price price, Bid.item item
FROM Bid,
  (SELECT MAX(TumbleBid.price) maxPrice, TumbleBid.wstart wstart, TumbleBid.wend wend
   FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) TumbleBid
   GROUP BY TumbleBid.wend, TumbleBid.wstart) MaxBid
WHERE Bid.price = MaxBid.maxPrice
  AND Bid.bidtime >= MaxBid.wend - INTERVAL '10' MINUTE
  AND Bid.bidtime < MaxBid.wend`
	pq := mustPlan(t, sql)
	sch := pq.Root.Schema()
	want := []string{"wstart", "wend", "bidtime", "price", "item"}
	for i, n := range want {
		if !strings.EqualFold(sch.Cols[i].Name, n) {
			t.Errorf("col %d = %q, want %q", i, sch.Cols[i].Name, n)
		}
	}
	if !sch.Cols[0].EventTime || !sch.Cols[1].EventTime || !sch.Cols[2].EventTime {
		t.Errorf("event-time flags lost: %s", sch)
	}
	if pq.Root.Unbounded() != true {
		t.Error("q7 is unbounded")
	}
}

func TestPlanScalarSubquery(t *testing.T) {
	pq := mustPlan(t, "SELECT item FROM Bid WHERE price = (SELECT MAX(price) FROM Bid)")
	// Shape: Project <- Filter <- CrossJoin(Scan, Aggregate).
	proj := pq.Root.(*Project)
	flt := proj.Input.(*Filter)
	join := flt.Input.(*Join)
	if join.Kind != sqlparser.CrossJoin {
		t.Fatalf("join kind = %v", join.Kind)
	}
	if _, ok := join.Right.(*Project); !ok {
		t.Fatalf("subquery side = %T", join.Right)
	}
}

func TestPlanEmitValidation(t *testing.T) {
	// AFTER WATERMARK needs an event-time output column.
	err := planErr(t, "SELECT price FROM Bid EMIT AFTER WATERMARK")
	if !strings.Contains(err.Error(), "event-time") {
		t.Errorf("error = %v", err)
	}
	pq := mustPlan(t, "SELECT bidtime, price FROM Bid EMIT STREAM AFTER WATERMARK")
	if !pq.Emit.Stream || !pq.Emit.AfterWatermark {
		t.Errorf("emit = %+v", pq.Emit)
	}
	pq = mustPlan(t, "SELECT bidtime, price FROM Bid EMIT STREAM AFTER DELAY INTERVAL '6' MINUTE")
	if pq.Emit.Delay == nil || *pq.Emit.Delay != 6*types.Minute {
		t.Errorf("delay = %+v", pq.Emit.Delay)
	}
	planErr(t, "SELECT bidtime FROM Bid EMIT STREAM AFTER DELAY INTERVAL '0' MINUTE")
	planErr(t, "SELECT bidtime FROM Bid ORDER BY bidtime EMIT STREAM")
	planErr(t, "SELECT bidtime FROM Bid LIMIT 3 EMIT STREAM")
	planErr(t, "SELECT * FROM (SELECT bidtime FROM Bid EMIT STREAM) x")
}

func TestPlanAsOf(t *testing.T) {
	pq := mustPlan(t, "SELECT * FROM Bid AS OF SYSTEM TIME TIMESTAMP '8:13'")
	scan := findScan(pq.Root)
	if scan.AsOf == nil || *scan.AsOf != types.ClockTime(8, 13) {
		t.Fatalf("asof = %+v", scan.AsOf)
	}
	if pq.Root.Unbounded() {
		t.Error("AS OF snapshot is bounded")
	}
	planErr(t, "SELECT * FROM Bid AS OF SYSTEM TIME price")
}

func findScan(n Node) *Scan {
	if s, ok := n.(*Scan); ok {
		return s
	}
	for _, c := range n.Children() {
		if s := findScan(c); s != nil {
			return s
		}
	}
	return nil
}

func TestPlanJoinKeyExtraction(t *testing.T) {
	pq := mustPlan(t, "SELECT * FROM Bid b JOIN Category c ON b.price = c.id AND b.item > c.name")
	var join *Join
	var rec func(Node)
	rec = func(n Node) {
		if j, ok := n.(*Join); ok {
			join = j
		}
		for _, ch := range n.Children() {
			rec(ch)
		}
	}
	rec(pq.Root)
	if join == nil {
		t.Fatal("no join")
	}
	if len(join.LeftKeys) != 1 || join.LeftKeys[0] != 1 || join.RightKeys[0] != 0 {
		t.Fatalf("keys = %v / %v", join.LeftKeys, join.RightKeys)
	}
	if join.Residual == nil {
		t.Fatal("residual missing")
	}
}

func TestPlanSetOps(t *testing.T) {
	pq := mustPlan(t, "SELECT item FROM Bid UNION ALL SELECT item FROM Bid")
	if _, ok := pq.Root.(*Union); !ok {
		t.Fatalf("root = %T", pq.Root)
	}
	pq = mustPlan(t, "SELECT name FROM Category UNION SELECT name FROM Category")
	if _, ok := pq.Root.(*Distinct); !ok {
		t.Fatalf("distinct union root = %T", pq.Root)
	}
	pq = mustPlan(t, "SELECT name FROM Category INTERSECT SELECT name FROM Category")
	if s, ok := pq.Root.(*SetOp); !ok || s.Op != sqlparser.Intersect {
		t.Fatalf("intersect root = %T", pq.Root)
	}
	planErr(t, "SELECT item, price FROM Bid UNION ALL SELECT item FROM Bid")
	planErr(t, "SELECT item FROM Bid UNION ALL SELECT bidtime FROM Bid")
}

func TestPlanOrderByLimit(t *testing.T) {
	pq := mustPlan(t, "SELECT item, price FROM Bid ORDER BY price DESC, 1 LIMIT 3")
	if len(pq.OrderBy) != 2 || !pq.OrderBy[0].Desc || pq.OrderBy[0].Col != 1 || pq.OrderBy[1].Col != 0 {
		t.Fatalf("order by = %+v", pq.OrderBy)
	}
	if pq.Limit == nil || *pq.Limit != 3 {
		t.Fatalf("limit = %v", pq.Limit)
	}
	planErr(t, "SELECT item FROM Bid ORDER BY nope")
	planErr(t, "SELECT item FROM Bid ORDER BY 5")
	planErr(t, "SELECT item FROM Bid LIMIT price")
}

func TestPlanErrors(t *testing.T) {
	cases := []string{
		"SELECT nope FROM Bid",
		"SELECT b.nope FROM Bid b",
		"SELECT price FROM Nothing",
		"SELECT price FROM Bid b1, Bid b2 WHERE price > 1", // ambiguous
		"SELECT SUM(item) FROM Bid GROUP BY bidtime",       // SUM over VARCHAR
		"SELECT price FROM Bid GROUP BY bidtime",           // not in group by
		"SELECT SUM(SUM(price)) FROM Bid GROUP BY bidtime", // nested agg
		"SELECT SUM(price) FROM Bid WHERE SUM(price) > 1",  // agg in where
		"SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(nope), dur => INTERVAL '1' MINUTE)",
		"SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(price), dur => INTERVAL '1' MINUTE)",
		"SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime))", // missing dur
		"SELECT * FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => price)",
		"SELECT * FROM Nope(data => TABLE(Bid))",
		"SELECT price + item FROM Bid",
		"SELECT price AND item FROM Bid",
		"SELECT NOT price FROM Bid",
		"SELECT -item FROM Bid",
		"SELECT price FROM Bid WHERE item", // non-boolean where
		"SELECT COUNT(price, item) FROM Bid GROUP BY bidtime",
		"SELECT MAX(*) FROM Bid",
		"SELECT (SELECT price, item FROM Bid) FROM Bid", // non-scalar subquery
	}
	for _, sql := range cases {
		planErr(t, sql)
	}
}

func TestPlanFromlessSelect(t *testing.T) {
	pq := mustPlan(t, "SELECT 1 + 2 AS three, 'x' AS s")
	proj := pq.Root.(*Project)
	if _, ok := proj.Input.(*Values); !ok {
		t.Fatalf("input = %T", proj.Input)
	}
	if proj.Sch.Cols[0].Name != "three" || proj.Sch.Cols[1].Kind != types.KindString {
		t.Fatalf("schema = %v", proj.Sch)
	}
}

func TestPlanDistinct(t *testing.T) {
	pq := mustPlan(t, "SELECT DISTINCT item FROM Bid")
	if _, ok := pq.Root.(*Distinct); !ok {
		t.Fatalf("root = %T", pq.Root)
	}
}

func TestPlanFormat(t *testing.T) {
	for sql, wants := range map[string][]string{
		"SELECT item FROM Bid WHERE price > 1": {"Project", "Filter", "Scan(Bid)"},
		// A string literal is quoted, so its text cannot read as plan
		// syntax: the rendering keys shared standing queries.
		`SELECT item FROM Bid WHERE item = 'x:VARCHAR) AND ($0'`: {`"x:VARCHAR) AND ($0":VARCHAR`},
		// The constant relation shows its rows, not only their count.
		"SELECT 1 AS one": {"Values(())"},
	} {
		out := Format(mustPlan(t, sql).Root)
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("Format of %q missing %s:\n%s", sql, want, out)
			}
		}
	}
}

func TestPlanCountDistinct(t *testing.T) {
	pq := mustPlan(t, `SELECT wend, COUNT(DISTINCT item) FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE) GROUP BY wend`)
	proj := pq.Root.(*Project)
	agg := proj.Input.(*Aggregate)
	if !agg.Aggs[0].Distinct {
		t.Fatal("distinct flag lost")
	}
}

func TestPlanHavingAndExprOverAgg(t *testing.T) {
	pq := mustPlan(t, `SELECT wend, SUM(price) * 2 AS dbl
		FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime), dur => INTERVAL '10' MINUTE)
		GROUP BY wend HAVING COUNT(*) > 1`)
	proj := pq.Root.(*Project)
	flt, ok := proj.Input.(*Filter)
	if !ok {
		t.Fatalf("expected having filter, got %T", proj.Input)
	}
	agg := flt.Input.(*Aggregate)
	// SUM and COUNT(*) both collected.
	if len(agg.Aggs) != 2 {
		t.Fatalf("aggs = %v", agg.Aggs)
	}
	if proj.Sch.Cols[1].Name != "dbl" {
		t.Errorf("alias = %q", proj.Sch.Cols[1].Name)
	}
}
