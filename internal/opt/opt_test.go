package opt_test

// Rule-level tests for the optimizer: each rewrite is checked structurally
// (the plan shape it should produce) and semantically (the optimized and
// unoptimized plans must produce byte-identical results when executed over
// the same recorded inputs).

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/nexmark"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// nexmarkEngine loads a small deterministic NEXMark dataset; the engine
// doubles as the planner's catalog, and the map holds what it recorded.
func nexmarkEngine(t testing.TB) (*core.Engine, map[string]tvr.Changelog) {
	t.Helper()
	g := nexmark.Generate(nexmark.GeneratorConfig{Seed: 5, NumEvents: 600, MaxOutOfOrderness: 2 * types.Second})
	e, err := nexmark.NewEngine(g, core.WithUnboundedGroupBy())
	if err != nil {
		t.Fatal(err)
	}
	return e, nexmarkLogs(g)
}

// nexmarkLogs maps each NEXMark relation, lower-cased, to its changelog.
func nexmarkLogs(g *nexmark.Generated) map[string]tvr.Changelog {
	return map[string]tvr.Changelog{"person": g.Persons, "auction": g.Auctions, "bid": g.Bids, "category": g.Categories}
}

// planQuery parses and plans without optimizing.
func planQuery(t *testing.T, cat plan.Catalog, sql string, unboundedGroupBy bool) *plan.PlannedQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pq, err := plan.New(cat, plan.Config{AllowUnboundedGroupBy: unboundedGroupBy}).Plan(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return pq
}

// sourcesFor collects the changelog of every relation the plan scans.
func sourcesFor(t *testing.T, logs map[string]tvr.Changelog, root plan.Node) []exec.Source {
	t.Helper()
	names := map[string]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			names[s.Name] = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	var out []exec.Source
	for name := range names {
		log, ok := logs[strings.ToLower(name)]
		if !ok {
			t.Fatalf("no changelog for %s", name)
		}
		out = append(out, exec.Source{Name: name, Log: log})
	}
	return out
}

func runQuery(t *testing.T, logs map[string]tvr.Changelog, pq *plan.PlannedQuery) *exec.Result {
	t.Helper()
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := pipe.Run(sourcesFor(t, logs, pq.Root), types.MaxTime)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestOptimizedPlansSemanticallyEquivalent runs every NEXMark query twice —
// once on the raw planner output, once optimized — and asserts the output
// TVRs are identical event for event.
func TestOptimizedPlansSemanticallyEquivalent(t *testing.T) {
	e, logs := nexmarkEngine(t)
	for _, q := range nexmark.Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			raw := runQuery(t, logs, planQuery(t, e, q.SQL, q.NeedsUnboundedGroupBy))
			optimized := runQuery(t, logs, opt.Optimize(planQuery(t, e, q.SQL, q.NeedsUnboundedGroupBy)))

			if len(raw.Log) != len(optimized.Log) {
				t.Fatalf("output log lengths differ: raw %d vs optimized %d", len(raw.Log), len(optimized.Log))
			}
			for i := range raw.Log {
				if raw.Log[i].String() != optimized.Log[i].String() {
					t.Fatalf("output event %d differs:\nraw:       %s\noptimized: %s", i, raw.Log[i], optimized.Log[i])
				}
			}
			rs, os := raw.StreamRows(), optimized.StreamRows()
			if len(rs) != len(os) {
				t.Fatalf("stream rows differ: %d vs %d", len(rs), len(os))
			}
			for i := range rs {
				if !rs[i].Row.Equal(os[i].Row) || rs[i].Undo != os[i].Undo || rs[i].Ptime != os[i].Ptime || rs[i].Ver != os[i].Ver {
					t.Fatalf("stream row %d differs", i)
				}
			}
		})
	}
}

// TestConstantFolding: constant subexpressions evaluate at plan time.
func TestConstantFolding(t *testing.T) {
	// 1 + 2 = 3 folds to TRUE.
	cond := &plan.BinOp{
		Op: sqlparser.OpEq,
		L:  &plan.BinOp{Op: sqlparser.OpAdd, L: &plan.Const{Val: types.NewInt(1)}, R: &plan.Const{Val: types.NewInt(2)}, K: types.KindInt64},
		R:  &plan.Const{Val: types.NewInt(3)},
		K:  types.KindBool,
	}
	sch := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt64})
	pq := &plan.PlannedQuery{Root: &plan.Filter{
		Input: &plan.Scan{Name: "s", Sch: sch, Stream: true},
		Cond:  cond,
	}}
	opt.Optimize(pq)
	f, ok := pq.Root.(*plan.Filter)
	if !ok {
		t.Fatalf("root = %T, want *plan.Filter", pq.Root)
	}
	c, ok := f.Cond.(*plan.Const)
	if !ok {
		t.Fatalf("condition = %s, want a folded constant", f.Cond)
	}
	if !c.Val.Bool() {
		t.Errorf("folded value = %s, want TRUE", c.Val)
	}
}

// TestPredicatePushdown: WHERE conjuncts over a comma join become equi-join
// keys, single-side filters below the join, and residuals.
func TestPredicatePushdown(t *testing.T) {
	e, _ := nexmarkEngine(t)
	pq := planQuery(t, e, `
		SELECT A.id, P.name
		FROM Auction A, Person P
		WHERE A.seller = P.id AND A.category = 1 AND A.initialBid > P.id + 1`, false)
	opt.Optimize(pq)

	// The filter above the join must be fully consumed.
	proj, ok := pq.Root.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T, want *plan.Project", pq.Root)
	}
	j, ok := proj.Input.(*plan.Join)
	if !ok {
		t.Fatalf("project input = %T, want *plan.Join (filter should be consumed)", proj.Input)
	}
	// A.seller = P.id becomes the equi key pair (Auction col 2, Person col 0).
	if len(j.LeftKeys) != 1 || j.LeftKeys[0] != 2 || j.RightKeys[0] != 0 {
		t.Errorf("equi keys = L%v R%v, want L[2] R[0]", j.LeftKeys, j.RightKeys)
	}
	// A.category = 1 is a left-only predicate: pushed below the join.
	if _, ok := j.Left.(*plan.Filter); !ok {
		t.Errorf("left input = %T, want *plan.Filter (pushed single-side predicate)", j.Left)
	}
	// The cross-side inequality stays as the join residual.
	if j.Residual == nil {
		t.Error("expected a join residual for the cross-side inequality")
	}
	// The join kind label is unchanged (a comma join stays CROSS JOIN);
	// what matters is that it gained hash keys and a residual.
	out := plan.Format(pq.Root)
	if !strings.Contains(out, "L$2=R$0") || !strings.Contains(out, "residual=") {
		t.Errorf("plan missing expected join keys/residual:\n%s", out)
	}
}

// TestIntervalJoinExpiry: Q7's interval predicates give the join expiry
// bounds, letting it free state once the watermark proves a row can never
// match again (the Section 5 state-cleanup lesson).
func TestIntervalJoinExpiry(t *testing.T) {
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidSchema()); err != nil {
		t.Fatal(err)
	}
	pq := planQuery(t, e, nexmark.Query7SQL, false)
	opt.Optimize(pq)

	var join *plan.Join
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && join == nil {
			join = j
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pq.Root)
	if join == nil {
		t.Fatal("no join in optimized Q7 plan")
	}
	// bidtime >= wend - 10min bounds stored bid rows: they expire 10
	// minutes past their bidtime.
	if join.LeftExpiry == nil {
		t.Fatal("expected a left-side expiry bound")
	}
	if join.LeftExpiry.Bound != 10*types.Minute {
		t.Errorf("left expiry bound = %s, want 10m", join.LeftExpiry.Bound)
	}
	// bidtime < wend bounds stored window rows symmetrically (strict
	// comparison tightens by a millisecond).
	if join.RightExpiry == nil {
		t.Fatal("expected a right-side expiry bound")
	}
	if join.RightExpiry.Bound != -types.Millisecond {
		t.Errorf("right expiry bound = %s, want -1ms", join.RightExpiry.Bound)
	}
	// The cleanup must not change results: run Q7 with and without the
	// optimizer over the paper's dataset.
	if err := e.AppendLog("Bid", nexmark.PaperBidLog()); err != nil {
		t.Fatal(err)
	}
	logs := map[string]tvr.Changelog{"bid": nexmark.PaperBidLog()}
	raw := runQuery(t, logs, planQuery(t, e, nexmark.Query7SQL, false))
	optimized := runQuery(t, logs, opt.Optimize(planQuery(t, e, nexmark.Query7SQL, false)))
	if len(raw.Log) != len(optimized.Log) {
		t.Fatalf("Q7 outputs differ: %d vs %d events", len(raw.Log), len(optimized.Log))
	}
	for i := range raw.Log {
		if raw.Log[i].String() != optimized.Log[i].String() {
			t.Fatalf("Q7 event %d differs: %s vs %s", i, raw.Log[i], optimized.Log[i])
		}
	}
}

// TestExpiryActuallyFreesState: with the optimizer the Q7 join holds less
// state at end-of-run than without it.
func TestExpiryActuallyFreesState(t *testing.T) {
	g := nexmark.Generate(nexmark.GeneratorConfig{Seed: 9, NumEvents: 1000, MaxOutOfOrderness: 2 * types.Second})
	e, err := nexmark.NewEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	q7, err := nexmark.QueryByID(7)
	if err != nil {
		t.Fatal(err)
	}

	run := func(pq *plan.PlannedQuery) exec.Stats {
		pipe, err := exec.Compile(pq)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pipe.Run(sourcesFor(t, nexmarkLogs(g), pq.Root), types.MaxTime); err != nil {
			t.Fatal(err)
		}
		return pipe.Stats()
	}
	rawStats := run(planQuery(t, e, q7.SQL, false))
	optStats := run(opt.Optimize(planQuery(t, e, q7.SQL, false)))
	if optStats.StateRows >= rawStats.StateRows {
		t.Errorf("optimizer should shrink join state: raw %d rows, optimized %d rows",
			rawStats.StateRows, optStats.StateRows)
	}
}
