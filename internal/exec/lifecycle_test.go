package exec_test

// Property tests for the incremental Start/Feed/Advance/Close lifecycle: any
// split of the source changelogs into Feed batches along the ptime axis must
// produce byte-identical output to a single one-shot Run. This is the
// invariant the standing-query subsystem (internal/live) relies on.

import (
	"fmt"
	"math/rand"
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

// lifecycleEngine loads a small deterministic NEXMark dataset with enough
// out-of-orderness to exercise late data and watermark-driven EMIT.
func lifecycleEngine(t testing.TB) *fixture {
	t.Helper()
	g := nexmark.Generate(nexmark.GeneratorConfig{Seed: 11, NumEvents: 700, MaxOutOfOrderness: 2 * types.Second})
	e, err := nexmark.NewEngine(g, core.WithUnboundedGroupBy())
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{Engine: e, logs: map[string]tvr.Changelog{
		"person": g.Persons, "auction": g.Auctions, "bid": g.Bids, "category": g.Categories}}
}

// fixture is an engine, the planner's catalog, plus the changelogs appended
// to it by lower-cased relation name, the pipelines' sources.
type fixture struct {
	*core.Engine
	logs map[string]tvr.Changelog
}

func newFixture(opts ...core.Option) *fixture {
	return &fixture{Engine: core.NewEngine(opts...), logs: map[string]tvr.Changelog{}}
}

// AppendLog appends log to the engine and records it.
func (f *fixture) AppendLog(name string, log tvr.Changelog) error {
	if err := f.Engine.AppendLog(name, log); err != nil {
		return err
	}
	f.logs[strings.ToLower(name)] = append(f.logs[strings.ToLower(name)], log...)
	return nil
}

func planSQL(t *testing.T, cat plan.Catalog, sql string) *plan.PlannedQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pq, err := plan.New(cat, plan.Config{AllowUnboundedGroupBy: true}).Plan(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return opt.Optimize(pq)
}

func execSourcesFor(t *testing.T, e *fixture, root plan.Node) []exec.Source {
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
		log, ok := e.logs[strings.ToLower(name)]
		if !ok {
			t.Fatalf("no changelog for %s", name)
		}
		out = append(out, exec.Source{Name: name, Log: log})
	}
	return out
}

// trimSources drops events beyond the horizon, mirroring Run's upTo contract.
func trimSources(sources []exec.Source, upTo types.Time) []exec.Source {
	out := make([]exec.Source, 0, len(sources))
	for _, s := range sources {
		end := 0
		for end < len(s.Log) && s.Log[end].Ptime <= upTo {
			end++
		}
		out = append(out, exec.Source{Name: s.Name, Log: s.Log[:end]})
	}
	return out
}

// splitPoints returns the sorted distinct ptimes across all sources.
func splitPoints(sources []exec.Source) []types.Time {
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

// compileDriver builds the pipeline for pq.
func compileDriver(t *testing.T, pq *plan.PlannedQuery) *exec.Pipeline {
	t.Helper()
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return pipe
}

// feedInBatches drives the incremental lifecycle: the sources are cut along
// the ptime axis at the given boundaries (each batch holds every remaining
// event with ptime <= cut), fed batch by batch, drained incrementally, then
// advanced to upTo (when finite) and closed. It returns the concatenation of
// all Drain calls — everything the pipeline output.
func feedInBatches(t *testing.T, d *exec.Pipeline, sources []exec.Source, cuts []types.Time, upTo types.Time) tvr.Changelog {
	t.Helper()
	if err := d.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	sources = trimSources(sources, upTo)
	pos := make([]int, len(sources))
	var drained tvr.Changelog
	boundaries := append(append([]types.Time{}, cuts...), types.MaxTime)
	for _, cut := range boundaries {
		var batch []exec.Source
		for i, s := range sources {
			start := pos[i]
			end := start
			for end < len(s.Log) && s.Log[end].Ptime <= cut {
				end++
			}
			if end > start {
				batch = append(batch, exec.Source{Name: s.Name, Log: s.Log[start:end]})
				pos[i] = end
			}
		}
		if err := d.Feed(batch); err != nil {
			t.Fatalf("feed: %v", err)
		}
		drained = append(drained, d.Drain()...)
	}
	if upTo != types.MaxTime {
		if err := d.Advance(upTo); err != nil {
			t.Fatalf("advance: %v", err)
		}
		drained = append(drained, d.Drain()...)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return append(drained, d.Drain()...)
}

// assertDrainedMatchesRun compares the concatenated drains of an incremental
// run, and both renderings derived from them, with a one-shot Run's result:
// the stream rendering of the drained log, and a table folded from it and
// presented in the Run's order.
func assertDrainedMatchesRun(t *testing.T, label string, drained tvr.Changelog, want *exec.Result) {
	t.Helper()
	gl, wl := fmtLog(drained), fmtLog(want.Log)
	if len(gl) != len(wl) {
		t.Fatalf("%s: drained %d output events, want %d", label, len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("%s: drained event %d = %s, want %s", label, i, gl[i], wl[i])
		}
	}
	gs := tvr.FormatStreamTable(want.Schema, tvr.RenderStream(drained, want.EmitKeyIdxs))
	ws := tvr.FormatStreamTable(want.Schema, want.StreamRows())
	if gs != ws {
		t.Fatalf("%s: stream rendering differs:\ngot:\n%s\nwant:\n%s", label, gs, ws)
	}
	snap, err := drained.SnapshotAt(types.MaxTime)
	if err != nil {
		t.Fatalf("%s: folding the drained log: %v", label, err)
	}
	got := &exec.Result{Schema: want.Schema, Snapshot: snap, OrderBy: want.OrderBy, Limit: want.Limit}
	gt := tvr.FormatRelationTable(want.Schema, got.TableRows())
	wt := tvr.FormatRelationTable(want.Schema, want.TableRows())
	if gt != wt {
		t.Fatalf("%s: table rendering differs:\ngot:\n%s\nwant:\n%s", label, gt, wt)
	}
}

// lifecycleQueries is a cross-section of operator shapes: stateless
// selection, join, windowed aggregation with every EMIT flavor, and the full
// NEXMark Q7 self-join.
func lifecycleQueries() []struct{ name, sql string } {
	windowedMax := `
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend`
	// Grouping by the auction column as well as the window.
	keyedMax := `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend`
	// Grouping only by the window columns, with MAX, COUNT and AVG.
	twoStage := `
SELECT TB.wstart wstart, TB.wend wend,
       MAX(TB.price) maxPrice, COUNT(*) bids, AVG(TB.price) avgPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wend, TB.wstart`
	// An aggregate re-keying a join's output by a column that is not the
	// join key.
	twoStageRekey := `
SELECT W.seller seller, AVG(W.price) avgPrice, MIN(W.price) minPrice
FROM (SELECT P.id id, P.name seller, B.price price
      FROM Person P JOIN Bid B ON P.id = B.bidder) W
GROUP BY W.seller`
	// One-second windows over the ~70 s dataset: at any split point past the
	// first few seconds most groups ever created have already been closed by
	// the watermark and evicted (TestCheckpointRestoreEquivalence asserts it),
	// so restores land on state that is mostly *absent* — keyed and
	// window-only, with both watermark-closing EMIT flavors.
	shortKeyed := `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '1' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend`
	shortTwoStage := `
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice, COUNT(*) bids
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '1' SECONDS) TB
GROUP BY TB.wend, TB.wstart`
	const delayAndWm = ` EMIT STREAM AFTER DELAY INTERVAL '3' SECONDS AND AFTER WATERMARK`
	return []struct{ name, sql string }{
		{"short-window-keyed-emit-wm", shortKeyed + ` EMIT STREAM AFTER WATERMARK`},
		{"short-window-keyed-emit-delay-and-wm", shortKeyed + delayAndWm},
		{"short-window-two-stage-emit-wm", shortTwoStage + ` EMIT STREAM AFTER WATERMARK`},
		{"short-window-two-stage-emit-delay-and-wm", shortTwoStage + delayAndWm},
		{"selection", `SELECT auction, price FROM Bid WHERE MOD(auction, 5) = 0`},
		{"join", `SELECT P.name, A.id FROM Auction A JOIN Person P ON A.seller = P.id`},
		{"windowed-max", windowedMax},
		{"windowed-max-emit-wm", windowedMax + ` EMIT AFTER WATERMARK`},
		{"windowed-max-emit-delay", windowedMax + ` EMIT AFTER DELAY INTERVAL '7' SECONDS`},
		{"windowed-max-emit-stream-wm", windowedMax + ` EMIT STREAM AFTER WATERMARK`},
		{"keyed-max-emit-wm", keyedMax + ` EMIT STREAM AFTER WATERMARK`},
		{"keyed-max-emit-delay", keyedMax + ` EMIT AFTER DELAY INTERVAL '7' SECONDS`},
		{"two-stage-window", twoStage},
		{"two-stage-window-emit-wm", twoStage + ` EMIT STREAM AFTER WATERMARK`},
		{"two-stage-window-emit-delay", twoStage + ` EMIT AFTER DELAY INTERVAL '7' SECONDS`},
		{"two-stage-rekey", twoStageRekey},
	}
}

// TestFeedSplitEquivalence: for every query, feeding the recorded changelogs
// in one-event-deep ptime batches, in randomly cut batches, and in one big
// batch all produce byte-identical results to the one-shot Run — over the
// full input and truncated at a finite horizon.
func TestFeedSplitEquivalence(t *testing.T) {
	e := lifecycleEngine(t)
	for _, q := range lifecycleQueries() {
		q := q
		t.Run(q.name, func(t *testing.T) {
			pq := planSQL(t, e, q.sql)
			sources := execSourcesFor(t, e, pq.Root)
			pts := splitPoints(sources)
			horizons := []types.Time{types.MaxTime}
			if len(pts) > 2 {
				horizons = append(horizons, pts[len(pts)/2])
			}
			// parts=1: the whole input runs through one pipeline.
			t.Run("parts=1", func(t *testing.T) {
				for hi, upTo := range horizons {
					want, err := compileDriver(t, pq).Run(sources, upTo)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					rng := rand.New(rand.NewSource(int64(42 + hi)))
					cutsets := [][]types.Time{
						pts, // finest valid split: one ptime per batch
						nil, // single batch
						randomCuts(rng, pts, 5),
						randomCuts(rng, pts, len(pts)/3+1),
					}
					for ci, cuts := range cutsets {
						d := compileDriver(t, pq)
						drained := feedInBatches(t, d, sources, cuts, upTo)
						assertDrainedMatchesRun(t, fmt.Sprintf("horizon=%s cutset=%d", upTo, ci), drained, want)
						if !d.FedInMergeOrder() {
							t.Fatalf("horizon=%s cutset=%d: ptime-axis batches reported out of merge order", upTo, ci)
						}
					}
				}
			})
		})
	}
}

// TestFedInMergeOrder: the merge-order bit clears once a Feed starts before
// the last event fed, by ptime or, at equal ptime, by scan order, stays
// clear, and a restored driver never reports it set. Splits along the ptime
// axis keep it set (TestFeedSplitEquivalence).
func TestFedInMergeOrder(t *testing.T) {
	e := lifecycleEngine(t)
	pq := planSQL(t, e, `SELECT P.name, A.id FROM Auction A JOIN Person P ON A.seller = P.id`)
	first := func(name string, pt types.Time) []exec.Source {
		for _, ev := range e.logs[name] {
			if ev.Kind == tvr.Insert {
				ev.Ptime = pt
				return []exec.Source{{Name: name, Log: tvr.Changelog{ev}}}
			}
		}
		t.Fatalf("no insert in %s", name)
		return nil
	}
	for _, tc := range []struct {
		name    string
		batches [][]exec.Source
		want    bool
	}{
		{"scan order at one ptime", [][]exec.Source{first("auction", 5), first("person", 5)}, true},
		{"earlier ptime", [][]exec.Source{first("person", 9), first("auction", 5), first("person", 12)}, false},
		{"earlier scan at one ptime", [][]exec.Source{first("person", 5), first("auction", 5)}, false},
	} {
		d := compileDriver(t, pq)
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		for _, b := range tc.batches {
			if err := d.Feed(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.FedInMergeOrder(); got != tc.want {
			t.Errorf("%s: FedInMergeOrder = %v, want %v", tc.name, got, tc.want)
		}
		if checkpointRoundTrip(t, d, pq).FedInMergeOrder() {
			t.Errorf("%s: a restored driver reports merge order", tc.name)
		}
	}
}

// randomCuts picks n random distinct split points from pts, in order.
func randomCuts(rng *rand.Rand, pts []types.Time, n int) []types.Time {
	if n <= 0 || len(pts) == 0 {
		return nil
	}
	picked := map[int]bool{}
	for i := 0; i < n; i++ {
		picked[rng.Intn(len(pts))] = true
	}
	var cuts []types.Time
	for i, p := range pts {
		if picked[i] {
			cuts = append(cuts, p)
		}
	}
	return cuts
}

// TestBatchDispatchStats: the batched feed path accounts its dispatches —
// every source event is delivered exactly once, and feeding the whole log in
// one batch coalesces far more events per dispatch than per-ptime feeding,
// without changing the output (TestFeedSplitEquivalence pins the equality).
func TestBatchDispatchStats(t *testing.T) {
	e := lifecycleEngine(t)
	pq := planSQL(t, e, `SELECT auction, price FROM Bid WHERE MOD(auction, 5) = 0`)
	sources := execSourcesFor(t, e, pq.Root)
	total := 0
	for _, s := range sources {
		total += len(s.Log)
	}
	feed := func(cuts []types.Time) exec.Stats {
		d := compileDriver(t, pq)
		feedInBatches(t, d, sources, cuts, types.MaxTime)
		return d.Stats()
	}
	coarse := feed(nil) // one Feed call: the whole log is one run
	fine := feed(splitPoints(sources))
	for _, st := range []exec.Stats{coarse, fine} {
		if st.Dispatches <= 0 || st.DispatchedEvents != int64(total) {
			t.Fatalf("stats = %+v, want Dispatches > 0 and DispatchedEvents = %d", st, total)
		}
		if st.EventsPerDispatch < 1 {
			t.Fatalf("EventsPerDispatch = %v, want >= 1", st.EventsPerDispatch)
		}
	}
	if coarse.EventsPerDispatch <= fine.EventsPerDispatch {
		t.Fatalf("one-batch feed should coalesce more events per dispatch: coarse %v <= fine %v",
			coarse.EventsPerDispatch, fine.EventsPerDispatch)
	}
	if coarse.Dispatches != 1 {
		t.Fatalf("single-source whole-log feed took %d dispatches, want 1", coarse.Dispatches)
	}
}

// TestLifecycleMisuse: the lifecycle endpoints reject out-of-order use.
func TestLifecycleMisuse(t *testing.T) {
	e := lifecycleEngine(t)
	pq := planSQL(t, e, `SELECT auction, price FROM Bid`)
	pipe, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Feed(nil); err == nil {
		t.Error("Feed before Start should fail")
	}
	if err := pipe.Start(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Start(); err == nil {
		t.Error("double Start should fail")
	}
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Close(); err == nil {
		t.Error("double Close should fail")
	}
	if err := pipe.Feed(nil); err == nil {
		t.Error("Feed after Close should fail")
	}
	if err := pipe.Advance(5); err == nil {
		t.Error("Advance after Close should fail")
	}
}
