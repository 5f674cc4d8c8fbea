package core_test

// End-to-end tests for the standing-query subsystem: a live EMIT STREAM
// subscription fed event by event must observe exactly the delta sequence a
// post-hoc QueryStream replay of the same changelog produces — including
// late data and watermark-driven EMIT — and table subscriptions' consolidated diffs must
// reconstruct the QueryTable snapshot.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// liveBidQuery is a NEXMark-shaped standing query over the Bid stream:
// per-auction windowed MAX with watermark-driven EMIT, so deltas are
// produced by group completion and late bids are dropped.
const liveBidQuery = `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend
EMIT STREAM AFTER WATERMARK`

// liveData generates a NEXMark dataset with enough out-of-orderness that
// some bids arrive behind the watermark (late data).
func liveData(t testing.TB) *nexmark.Generated {
	t.Helper()
	return nexmark.Generate(nexmark.GeneratorConfig{
		Seed: 9, NumEvents: 1200, MaxOutOfOrderness: 2 * types.Second,
		WatermarkInterval: 5 * types.Second,
	})
}

// newBidEngine registers just the Bid stream.
func newBidEngine(t testing.TB) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// ingestEvent commits one recorded changelog event on its own.
func ingestEvent(t testing.TB, e *core.Engine, name string, ev tvr.Event) {
	t.Helper()
	if !ev.IsData() && ev.Kind != tvr.Watermark {
		t.Fatalf("unexpected event kind %s", ev.Kind)
	}
	if err := e.AppendLog(name, tvr.Changelog{ev}); err != nil {
		t.Fatalf("ingest %s: %v", ev, err)
	}
}

// twinEngine is the second engine a dedicated twin subscribes on: a
// newBidEngine fed log, the Bid changelog so far, in one commit. A
// subscription on it compiles its own pipeline and replays that history, as
// one that shares nothing does; the test then feeds it the commits it feeds
// the engine under test.
func twinEngine(t testing.TB, log tvr.Changelog) *core.Engine {
	t.Helper()
	e := newBidEngine(t)
	if len(log) > 0 {
		if err := e.AppendLog("Bid", log); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// collectStream drains every delta (delivered plus final) into one sequence.
func collectStream(sub *live.Subscription, final *live.Delta) []tvr.StreamRow {
	var rows []tvr.StreamRow
	for d := range sub.Deltas() {
		rows = append(rows, d.Stream...)
	}
	if final != nil {
		rows = append(rows, final.Stream...)
	}
	return rows
}

// TestLiveStreamMatchesReplay is the subsystem's core guarantee: subscribe,
// ingest the changelog event by event (half of it before subscribing, to
// exercise the history-replay handoff), close, and the concatenated delta
// sequence is byte-identical to QueryStream replay over the full log.
func TestLiveStreamMatchesReplay(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("parts=1", func(t *testing.T) {
		g := liveData(t)
		// Replay rendering of the full recorded changelog.
		replayEngine := newBidEngine(t)
		if err := replayEngine.AppendLog("Bid", g.Bids); err != nil {
			t.Fatal(err)
		}
		want, err := replayEngine.QueryStream(liveBidQuery)
		if err != nil {
			t.Fatal(err)
		}

		// Live: ingest the first half as history, subscribe, then feed
		// the second half event by event.
		liveEngine := newBidEngine(t)
		half := len(g.Bids) / 2
		if err := liveEngine.AppendLog("Bid", g.Bids[:half]); err != nil {
			t.Fatal(err)
		}
		sub, err := liveEngine.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range g.Bids[half:] {
			ingestEvent(t, liveEngine, "Bid", ev)
		}
		st := sub.Stats()
		if st.EventsIn != int64(len(g.Bids)) {
			t.Errorf("EventsIn = %d, want %d", st.EventsIn, len(g.Bids))
		}
		final, err := sub.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := collectStream(sub, final)

		gotStr := tvr.FormatStreamTable(sub.Schema(), got)
		wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)
		if gotStr != wantStr {
			t.Fatalf("live delta sequence differs from replay:\nlive (%d rows):\n%s\nreplay (%d rows):\n%s",
				len(got), truncate(gotStr), len(want.Rows), truncate(wantStr))
		}
		if len(got) == 0 {
			t.Fatal("no deltas delivered; test is vacuous")
		}
		if sub.Err() != nil {
			t.Errorf("Err after graceful close = %v", sub.Err())
		}
		if liveEngine.LiveSessions() != 0 {
			t.Errorf("%d sessions still registered after close", liveEngine.LiveSessions())
		}
	})
}

// TestLiveStreamLateData pins down the late-data behaviour rather than
// relying on the generator: a bid behind the watermark must not produce a
// delta, matching replay exactly.
func TestLiveStreamLateData(t *testing.T) {
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	bid := func(auction, bidder, price int64, et types.Time) types.Row {
		return types.Row{
			types.NewInt(auction), types.NewInt(bidder), types.NewInt(price),
			types.NewTimestamp(et),
		}
	}
	log := tvr.Changelog{
		tvr.InsertEvent(sec(1), bid(1, 1, 10, sec(2))),
		tvr.InsertEvent(sec(2), bid(1, 2, 30, sec(8))),
		// Watermark passes the first window [0s,10s).
		tvr.WatermarkEvent(sec(12), sec(11)),
		// Late: event time inside the already-complete first window.
		tvr.InsertEvent(sec(13), bid(1, 3, 99, sec(4))),
		tvr.InsertEvent(sec(14), bid(1, 4, 25, sec(15))),
		tvr.WatermarkEvent(sec(22), sec(21)),
	}
	replayEngine := newBidEngine(t)
	if err := replayEngine.AppendLog("Bid", log); err != nil {
		t.Fatal(err)
	}
	want, err := replayEngine.QueryStream(liveBidQuery)
	if err != nil {
		t.Fatal(err)
	}

	liveEngine := newBidEngine(t)
	sub, err := liveEngine.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range log {
		ingestEvent(t, liveEngine, "Bid", ev)
	}
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := collectStream(sub, final)
	gotStr := tvr.FormatStreamTable(sub.Schema(), got)
	wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)
	if gotStr != wantStr {
		t.Fatalf("live differs from replay:\nlive:\n%s\nreplay:\n%s", gotStr, wantStr)
	}
	// The late bid (price 99) must not appear anywhere.
	for _, r := range got {
		if r.Row[2].Int() == 99 {
			t.Fatalf("late bid leaked into output: %s", r)
		}
	}
	// Exactly the two completed windows materialized.
	if len(got) != 2 {
		t.Fatalf("got %d rows, want 2:\n%s", len(got), gotStr)
	}
}

// TestLiveTableDiffs: a TABLE subscription's consolidated diffs reconstruct
// the QueryTable snapshot.
func TestLiveTableDiffs(t *testing.T) {
	g := liveData(t)
	sql := `SELECT auction, price FROM Bid WHERE MOD(auction, 3) = 0`

	replayEngine := newBidEngine(t)
	if err := replayEngine.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	want, err := replayEngine.QueryTable(sql, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}

	liveEngine := newBidEngine(t)
	sub, err := liveEngine.SubscribeTable(sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range g.Bids {
		ingestEvent(t, liveEngine, "Bid", ev)
	}
	diffs := receiveOwed(t, sub, 0)
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the snapshot from the diffs.
	rel := tvr.NewRelation()
	apply := func(d *live.TableDiff) {
		for _, r := range d.Inserted {
			rel.Insert(r)
		}
		for _, r := range d.Deleted {
			if err := rel.Delete(r); err != nil {
				t.Fatalf("diff deletes absent row %s: %v", r, err)
			}
		}
	}
	n := 0
	for _, d := range diffs {
		if d.Table == nil {
			t.Fatal("table subscription delivered a nil Table diff")
		}
		apply(d.Table)
		n++
	}
	if final != nil {
		apply(final.Table)
	}
	if n == 0 {
		t.Fatal("no diffs delivered; test is vacuous")
	}
	got := tvr.FormatRelationTable(want.Schema, rel.Rows())
	wantStr := tvr.FormatRelationTable(want.Schema, want.Rows)
	if got != wantStr {
		t.Fatalf("reconstructed snapshot differs:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(wantStr))
	}
}

// TestSubscribeTableRejectsOrderBy: a diff stream cannot maintain
// presentation order, so table subscriptions refuse ORDER BY/LIMIT rather
// than silently diverging from QueryTable.
func TestSubscribeTableRejectsOrderBy(t *testing.T) {
	e := newBidEngine(t)
	if _, err := e.SubscribeTable(`SELECT auction, price FROM Bid ORDER BY price LIMIT 5`,
		core.SubscribeOptions{}); err == nil {
		t.Fatal("expected ORDER BY/LIMIT rejection for table subscription")
	}
	// The stream rendering ignores presentation order, as QueryStream does.
	sub, err := e.SubscribeStream(`SELECT auction, price FROM Bid ORDER BY price LIMIT 5`,
		core.SubscribeOptions{})
	if err != nil {
		t.Fatalf("stream subscription should ignore ORDER BY: %v", err)
	}
	sub.Cancel()
}

// TestLiveAppendLogAtomic: a changelog with a mid-log validation error must
// leave the relation untouched (satellite: atomic AppendLog).
func TestLiveAppendLogAtomic(t *testing.T) {
	e := newBidEngine(t)
	good := tvr.InsertEvent(1, types.Row{
		types.NewInt(1), types.NewInt(1), types.NewInt(5), types.NewTimestamp(1),
	})
	if err := e.AppendLog("Bid", tvr.Changelog{good}); err != nil {
		t.Fatal(err)
	}
	bad := tvr.Changelog{
		tvr.InsertEvent(2, types.Row{
			types.NewInt(2), types.NewInt(2), types.NewInt(6), types.NewTimestamp(2),
		}),
		// ptime regression: invalid.
		tvr.InsertEvent(1, types.Row{
			types.NewInt(3), types.NewInt(3), types.NewInt(7), types.NewTimestamp(3),
		}),
	}
	if err := e.AppendLog("Bid", bad); err == nil || !strings.Contains(err.Error(), "Bid: event 1: ptime") {
		t.Fatalf("AppendLog error = %v, want a refusal naming event 1's ptime", err)
	}
	// A type refusal names the event's index too, not its column's.
	mistyped := tvr.Changelog{good, good, tvr.InsertEvent(3, types.Row{
		types.NewInt(3), types.NewString("x"), types.NewInt(7), types.NewTimestamp(3),
	})}
	if err := e.AppendLog("Bid", mistyped); err == nil || !strings.Contains(err.Error(), "Bid: event 2: column") {
		t.Fatalf("AppendLog error = %v, want a refusal naming event 2's column", err)
	}
	log, err := e.Log("Bid")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 {
		t.Fatalf("relation has %d events after failed append, want 1 (atomicity violated)", len(log))
	}
	// The relation must still accept valid appends from its pre-failure
	// cursor state.
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(2, types.Row{
		types.NewInt(2), types.NewInt(2), types.NewInt(6), types.NewTimestamp(2),
	})}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveHeartbeat: EMIT AFTER DELAY standing queries materialize when the
// engine's processing-time clock advances via Heartbeat.
func TestLiveHeartbeat(t *testing.T) {
	sql := `
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS`
	e := newBidEngine(t)
	sub, err := e.SubscribeStream(sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	row := types.Row{types.NewInt(1), types.NewInt(1), types.NewInt(10), types.NewTimestamp(sec(2))}
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(1), row)}); err != nil {
		t.Fatal(err)
	}
	if st := sub.Stats(); st.DeltasOut != 0 {
		t.Fatalf("delta before the delay elapsed: %+v", st)
	}
	// Advance processing time past the 6s deadline: the timer fires.
	e.Heartbeat(sec(10))
	if st := sub.Stats(); st.DeltasOut != 1 {
		t.Fatalf("no delta after heartbeat fired the delay timer: %+v", st)
	}
	if d := waitDelta(t, sub); len(d.Stream) != 1 || d.Stream[0].Row[2].Int() != 10 {
		t.Fatalf("unexpected delta: %+v", d)
	}
	sub.Cancel()
	if sub.Err() != live.ErrClosed {
		t.Errorf("Err after cancel = %v, want ErrClosed", sub.Err())
	}
	if e.LiveSessions() != 0 {
		t.Errorf("%d sessions after cancel, want 0", e.LiveSessions())
	}
}

// TestSharedPlanDedup: subscriptions of one plan share one resident
// pipeline whatever their rendering — observable via
// LiveSessions/LiveSubscribers and the PipelineID/Subscribers stats.
func TestSharedPlanDedup(t *testing.T) {
	e := newBidEngine(t)
	opts := core.SubscribeOptions{}
	subA, err := e.SubscribeStream(liveBidQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Same query with reformatted whitespace: still the same plan key.
	subB, err := e.SubscribeStream(liveBidQuery+"\n  ", opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 1 || e.LiveSubscribers() != 2 {
		t.Fatalf("sessions=%d subscribers=%d after two identical subscriptions, want 1/2",
			e.LiveSessions(), e.LiveSubscribers())
	}
	stA, stB := subA.Stats(), subB.Stats()
	if stA.PipelineID != stB.PipelineID {
		t.Fatalf("pipeline ids %d vs %d, want shared", stA.PipelineID, stB.PipelineID)
	}
	if stA.Subscribers != 2 || stB.Subscribers != 2 {
		t.Fatalf("Subscribers = %d/%d, want 2/2", stA.Subscribers, stB.Subscribers)
	}
	// A table reader of the same query joins the same pipeline.
	subTable, err := e.SubscribeTable(liveBidQuery, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 1 || e.LiveSubscribers() != 3 {
		t.Fatalf("sessions=%d subscribers=%d, want 1/3", e.LiveSessions(), e.LiveSubscribers())
	}
	if st := subTable.Stats(); st.PipelineID != stA.PipelineID || st.Subscribers != 3 {
		t.Errorf("table reader: pipeline %d with %d subscribers, want the stream plan's %d with 3",
			st.PipelineID, st.Subscribers, stA.PipelineID)
	}
	// The departure of one sharer must not disturb the other; the
	// pipeline dies with the last one.
	subA.Cancel()
	if e.LiveSessions() != 1 || e.LiveSubscribers() != 2 {
		t.Fatalf("sessions=%d subscribers=%d after one sharer canceled, want 1/2",
			e.LiveSessions(), e.LiveSubscribers())
	}
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(1), types.Row{
		types.NewInt(1), types.NewInt(1), types.NewInt(10), types.NewTimestamp(sec(2)),
	})}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.WatermarkEvent(sec(12), sec(11))}); err != nil {
		t.Fatal(err)
	}
	if d := waitDelta(t, subB); len(d.Stream) != 1 {
		t.Fatalf("surviving sharer delta = %+v", d)
	}
	if d := waitDelta(t, subTable); d.Table == nil || len(d.Table.Inserted) != 1 || d.Stream != nil {
		t.Fatalf("table reader delta = %+v, want one inserted row and no stream rows", d)
	}
	subB.Cancel()
	subTable.Cancel()
	if e.LiveSessions() != 0 || e.LiveSubscribers() != 0 {
		t.Fatalf("sessions=%d subscribers=%d after all cancels, want 0/0",
			e.LiveSessions(), e.LiveSubscribers())
	}
}

// TestPlanKeyRespectsStringLiterals: whitespace is collapsed for the plan
// key only OUTSIDE string literals — 'a b' and 'a  b' are different queries
// and must not share a pipeline, while reformatting around the literal still
// shares.
func TestPlanKeyRespectsStringLiterals(t *testing.T) {
	e := core.NewEngine()
	sch := types.NewSchema(
		types.Column{Name: "name", Kind: types.KindString},
		types.Column{Name: "v", Kind: types.KindInt64},
	)
	if err := e.RegisterStream("S", sch); err != nil {
		t.Fatal(err)
	}
	opts := core.SubscribeOptions{}
	a, err := e.SubscribeStream(`SELECT v FROM S WHERE name = 'a b'`, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SubscribeStream(`SELECT v FROM S WHERE name = 'a  b'`, opts) // two spaces INSIDE the literal
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 2 {
		t.Fatalf("sessions = %d, want 2: literals differing in whitespace must not share", e.LiveSessions())
	}
	c, err := e.SubscribeStream("SELECT  v  FROM S\nWHERE name = 'a b'", opts) // reformatted OUTSIDE the literal
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 2 {
		t.Fatalf("sessions = %d after reformatted twin, want 2 (should share)", e.LiveSessions())
	}
	if a.Stats().PipelineID != c.Stats().PipelineID {
		t.Fatalf("reformatted twin pipeline %d != original %d", c.Stats().PipelineID, a.Stats().PipelineID)
	}
	// The two literal variants really are different queries end to end.
	if err := e.AppendLog("S", tvr.Changelog{tvr.InsertEvent(1, types.Row{types.NewString("a  b"), types.NewInt(7)})}); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.DeltasOut != 0 {
		t.Fatalf("'a b' subscriber was owed a delta for the 'a  b' row: %+v", st)
	}
	if st := b.Stats(); st.DeltasOut != 1 {
		t.Fatalf("'a  b' subscriber missed its row: %+v", st)
	}
	if d := waitDelta(t, b); len(d.Stream) != 1 || d.Stream[0].Row[0].Int() != 7 {
		t.Fatalf("'a  b' subscriber delta = %+v", d)
	}
	a.Cancel()
	b.Cancel()
	c.Cancel()

	// Double-quoted identifiers are whitespace-significant too: scans of
	// the distinct relations "r x" and "r  x" must not share a pipeline.
	if err := e.RegisterStream("r x", sch); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterStream("r  x", sch); err != nil {
		t.Fatal(err)
	}
	d1, err := e.SubscribeStream(`SELECT v FROM "r x"`, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := e.SubscribeStream(`SELECT v FROM "r  x"`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Stats().PipelineID == d2.Stats().PipelineID {
		t.Fatal("queries over distinct quoted relations share a pipeline")
	}
	d1.Cancel()
	d2.Cancel()
}

// TestSharedPlanMatchesDedicatedAndReplay is the shared-plan byte-identity
// property: readers of one relation attach to one SQL's pipeline at random
// points of a randomly Feed-split ingest (the first from the start, the rest
// late), in both renderings and under four spellings of the query —
// verbatim, reflowed whitespace, lower-case keywords, another table alias.
// Each is paired with a dedicated twin: a subscription of the same text and
// mode, opened at the same instant on a second engine of its own that is fed
// the same commits. All shared readers must land on one pipeline, and every
// reader's concatenated deltas — snapshot hand-off included — must equal its
// dedicated twin's and a post-hoc QueryStream replay (a stream reader) or
// the fold of it (a table reader). A final far-future watermark completes
// all windows before closing, so close-time flushes are empty and the
// property covers every reader, not just the last closer.
func TestSharedPlanMatchesDedicatedAndReplay(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("parts=1", func(t *testing.T) {
		g := liveData(t)
		last := g.Bids[len(g.Bids)-1]
		finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))
		readers := []reader{
			{sql: liveBidQuery},
			{sql: strings.Join(strings.Fields(liveBidQuery), " "), table: true},
			{sql: keywordCase.Replace(liveBidQuery)},
			{sql: strings.ReplaceAll(liveBidQuery, "TB", "W"), table: true},
		}
		replayEngine := newBidEngine(t)
		if err := replayEngine.AppendLog("Bid", append(append(tvr.Changelog{}, g.Bids...), finalWM)); err != nil {
			t.Fatal(err)
		}
		want, err := replayEngine.QueryStream(liveBidQuery)
		if err != nil {
			t.Fatal(err)
		}
		wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)
		wantRel := tvr.NewRelation()
		for _, r := range want.Rows {
			if r.Undo {
				if err := wantRel.Delete(r.Row); err != nil {
					t.Fatal(err)
				}
			} else {
				wantRel.Insert(r.Row)
			}
		}

		e := newBidEngine(t)
		rng := rand.New(rand.NewSource(31))
		attachAt := []int{0, len(g.Bids) / 3, 2 * len(g.Bids) / 3}
		opts := core.SubscribeOptions{}
		type pair struct {
			reader
			shared, dedicated *live.Subscription
		}
		var pairs []pair
		engines := []*core.Engine{e} // e and every twin's engine
		appendLog := func(log tvr.Changelog) {
			t.Helper()
			for _, e := range engines {
				if err := e.AppendLog("Bid", log); err != nil {
					t.Fatal(err)
				}
			}
		}
		i, next := 0, 0
		for i <= len(g.Bids) {
			for next < len(attachAt) && attachAt[next] <= i {
				for _, r := range readers {
					twin := twinEngine(t, g.Bids[:i])
					engines = append(engines, twin)
					pairs = append(pairs, pair{r, r.subscribe(t, e, opts), r.subscribe(t, twin, opts)})
				}
				next++
			}
			if i == len(g.Bids) {
				break
			}
			// Random ptime-axis Feed split.
			end := i + 1 + rng.Intn(8)
			if end > len(g.Bids) {
				end = len(g.Bids)
			}
			appendLog(g.Bids[i:end])
			i = end
		}
		appendLog(tvr.Changelog{finalWM})
		// One resident pipeline serves all shared readers.
		if k := len(pairs); e.LiveSessions() != 1 || e.LiveSubscribers() != k {
			t.Fatalf("sessions=%d subscribers=%d, want 1/%d", e.LiveSessions(), e.LiveSubscribers(), k)
		}
		// Close shared cursors in attach order (only the last completes
		// the pipeline), and every twin.
		for pi, p := range pairs {
			got, twin := closeDeltas(t, p.shared), closeDeltas(t, p.dedicated)
			if a, b := formatDeltas(p.shared.Schema(), got), formatDeltas(p.shared.Schema(), twin); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("pair %d (table=%v) shared reader differs from its dedicated twin:\n%s\nwant:\n%s",
					pi, p.table, truncate(fmt.Sprint(a)), truncate(fmt.Sprint(b)))
			}
			if p.table {
				if rel := foldDiffs(t, got); !rel.Equal(wantRel) {
					t.Fatalf("pair %d table reader folds to\n%s\nwant the fold of the replay\n%s",
						pi, truncate(rel.String()), truncate(wantRel.String()))
				}
				continue
			}
			var rows []tvr.StreamRow
			for _, d := range got {
				rows = append(rows, d.Stream...)
			}
			if got := tvr.FormatStreamTable(p.shared.Schema(), rows); got != wantStr {
				t.Fatalf("pair %d stream reader differs from replay:\ngot (%d rows):\n%s\nwant (%d rows):\n%s",
					pi, len(rows), truncate(got), len(want.Rows), truncate(wantStr))
			}
		}
		if e.LiveSessions() != 0 {
			t.Fatalf("%d sessions left after closing every subscriber", e.LiveSessions())
		}
	})
}

// TestSharedPlanOverflowSuccessor: a late subscriber of a plan whose
// resident session released its output at its retain cap gets a successor
// session, built under its own options. Each step is held to a second engine
// fed the same commits: the successor's hand-off equals a subscription
// there, the predecessor's cursor keeps receiving what the subscription
// there that was opened with it receives, and table reads are served from
// the successor (no overflow replay), also after the predecessor tears down
// with its last cursor. A late subscriber whose own cap is too small still
// gets live.ErrRetainedOverflow and leaves no pipeline behind.
func TestSharedPlanOverflowSuccessor(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("parts=1", func(t *testing.T) {
		g := liveData(t)
		last := g.Bids[len(g.Bids)-1]
		finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))
		reg := obs.NewRegistry()
		e := core.NewEngine(core.WithObs(reg))
		t.Cleanup(e.Close)
		if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
			t.Fatal(err)
		}
		twin := newBidEngine(t)
		appendLog := func(log tvr.Changelog) {
			t.Helper()
			for _, e := range []*core.Engine{e, twin} {
				if err := e.AppendLog("Bid", log); err != nil {
					t.Fatal(err)
				}
			}
		}
		const maxRows = 8
		opts := core.SubscribeOptions{}
		capped := opts
		capped.MaxRetainedRows = maxRows
		subscribe := func(e *core.Engine, opts core.SubscribeOptions) *live.Subscription {
			t.Helper()
			sub, err := e.SubscribeStream(liveBidQuery, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sub
		}
		pred, twinPred := subscribe(e, capped), subscribe(twin, opts)
		rng := rand.New(rand.NewSource(1))
		ingest := func(from, to int) {
			for i := from; i < to; {
				end := min(to, i+1+rng.Intn(8))
				appendLog(g.Bids[i:end])
				i = end
			}
		}
		half := len(g.Bids) / 2
		ingest(0, half)
		if st := pred.Stats(); st.RowsOut <= maxRows {
			t.Fatalf("test needs more than %d output rows by mid-stream to overflow, got %d", maxRows, st.RowsOut)
		}

		if _, err := e.SubscribeStream(liveBidQuery, capped); !errors.Is(err, live.ErrRetainedOverflow) {
			t.Fatalf("late subscribe under a cap the history overflows: err = %v, want ErrRetainedOverflow", err)
		}
		if n := e.LiveSessions(); n != 1 {
			t.Fatalf("%d sessions after the refused subscribe, want 1", n)
		}
		succ, twinLate := subscribe(e, opts), subscribe(twin, opts)
		if n := e.LiveSessions(); n != 2 || succ.Stats().PipelineID == pred.Stats().PipelineID {
			t.Fatalf("%d sessions, pipelines %d and %d: want a successor beside the predecessor",
				n, pred.Stats().PipelineID, succ.Stats().PipelineID)
		}
		format := func(rows []tvr.StreamRow) string { return tvr.FormatStreamTable(succ.Schema(), rows) }
		if got, want := format(collectPending(t, succ, 0)), format(collectPending(t, twinLate, 0)); got != want || got == format(nil) {
			t.Fatalf("successor hand-off differs from a subscription on a second engine:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(want))
		}

		ingest(half, len(g.Bids))
		appendLog(tvr.Changelog{finalWM})
		tableRead := func(when string) {
			t.Helper()
			served, overflowed := residentReads(reg), replayReads(reg, live.ReplayOverflow)
			got, err := e.QueryTable(liveBidQuery, types.MaxTime)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.QueryTable(liveBidQuery, types.MaxTime)
			if err != nil {
				t.Fatal(err)
			}
			if got.Format() != want.Format() {
				t.Fatalf("%s: table read differs from the second engine's:\ngot:\n%s\nwant:\n%s", when, truncate(got.Format()), truncate(want.Format()))
			}
			if residentReads(reg)-served != 1 || replayReads(reg, live.ReplayOverflow) != overflowed {
				t.Fatalf("%s: table read not served from the successor (resident %+d, overflow replays %+d)",
					when, residentReads(reg)-served, replayReads(reg, live.ReplayOverflow)-overflowed)
			}
		}
		tableRead("beside the predecessor")

		closeRows := func(sub *live.Subscription) string {
			t.Helper()
			final, err := sub.Close()
			if err != nil {
				t.Fatal(err)
			}
			return format(collectStream(sub, final))
		}
		if got, want := closeRows(pred), closeRows(twinPred); got != want {
			t.Fatalf("predecessor's cursor differs from the second engine's subscription:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(want))
		}
		if n := e.LiveSessions(); n != 1 {
			t.Fatalf("%d sessions after the predecessor's last cursor closed, want the successor alone", n)
		}
		tableRead("after the predecessor tore down")
		if got, want := closeRows(succ), closeRows(twinLate); got != want {
			t.Fatalf("successor's live deltas differ from the second engine's:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(want))
		}
	})
}

// receiveOwed receives every delta owed to sub beyond the read it has
// already received. DeltasOut counts a delivery as it is appended, so call
// it once the commits it should see have returned.
func receiveOwed(t *testing.T, sub *live.Subscription, read int) []live.Delta {
	t.Helper()
	var ds []live.Delta
	for n := sub.Stats().DeltasOut - int64(read); n > 0; n-- {
		ds = append(ds, waitDelta(t, sub))
	}
	return ds
}

// collectPending is receiveOwed's stream rows.
func collectPending(t *testing.T, sub *live.Subscription, read int) []tvr.StreamRow {
	t.Helper()
	var rows []tvr.StreamRow
	for _, d := range receiveOwed(t, sub, read) {
		rows = append(rows, d.Stream...)
	}
	return rows
}

// foldDiffs applies a table reader's diffs to an empty relation.
func foldDiffs(t *testing.T, ds []live.Delta) *tvr.Relation {
	t.Helper()
	rel := tvr.NewRelation()
	for _, d := range ds {
		for _, r := range d.Table.Inserted {
			rel.Insert(r)
		}
		for _, r := range d.Table.Deleted {
			if err := rel.Delete(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rel
}

// TestPlanKeyKeepsDistinctRelationsApart: the plan key shares spellings of
// one relation, never two relations. Each pair differs in something that
// changes what the pipeline computes or what its rows are called — EMIT
// AFTER WATERMARK, the AFTER DELAY duration, an output column alias — and
// gets two sessions.
func TestPlanKeyKeepsDistinctRelationsApart(t *testing.T) {
	const window = `
SELECT TB.auction auction, TB.wend wend, MAX(TB.price) %s
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wend %s`
	for _, tc := range []struct{ name, a, b string }{
		{"emit after watermark", fmt.Sprintf(window, "maxPrice", ""), fmt.Sprintf(window, "maxPrice", "EMIT AFTER WATERMARK")},
		{"delay duration", fmt.Sprintf(window, "maxPrice", "EMIT AFTER DELAY INTERVAL '2' SECONDS"), fmt.Sprintf(window, "maxPrice", "EMIT AFTER DELAY INTERVAL '3' SECONDS")},
		{"column alias", fmt.Sprintf(window, "maxPrice", ""), fmt.Sprintf(window, "topPrice", "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newBidEngine(t)
			a, err := e.SubscribeStream(tc.a, core.SubscribeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Cancel()
			b, err := e.SubscribeStream(tc.b, core.SubscribeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Cancel()
			if n := e.LiveSessions(); n != 2 || a.Stats().PipelineID == b.Stats().PipelineID {
				t.Fatalf("%d sessions, pipelines %d and %d: want two", n, a.Stats().PipelineID, b.Stats().PipelineID)
			}
		})
	}
}

// TestSharedTableLateAttach: a Table-mode subscriber attaching to an
// already-running shared plan gets a consistent initial diff (the snapshot
// hand-off) and then stays consistent: both sharers' reconstructed
// snapshots equal QueryTable.
func TestSharedTableLateAttach(t *testing.T) {
	g := liveData(t)
	sql := `SELECT auction, price FROM Bid WHERE MOD(auction, 3) = 0`
	replayEngine := newBidEngine(t)
	if err := replayEngine.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	want, err := replayEngine.QueryTable(sql, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}

	e := newBidEngine(t)
	opts := core.SubscribeOptions{}
	early, err := e.SubscribeTable(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(g.Bids) / 2
	if err := e.AppendLog("Bid", g.Bids[:half]); err != nil {
		t.Fatal(err)
	}
	late, err := e.SubscribeTable(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 1 || e.LiveSubscribers() != 2 {
		t.Fatalf("sessions=%d subscribers=%d, want 1/2", e.LiveSessions(), e.LiveSubscribers())
	}
	if err := e.AppendLog("Bid", g.Bids[half:]); err != nil {
		t.Fatal(err)
	}
	reconstruct := func(name string, sub *live.Subscription, final *live.Delta) string {
		rel := tvr.NewRelation()
		apply := func(d *live.TableDiff) {
			for _, r := range d.Inserted {
				rel.Insert(r)
			}
			for _, r := range d.Deleted {
				if err := rel.Delete(r); err != nil {
					t.Fatalf("%s: diff deletes absent row %s: %v", name, r, err)
				}
			}
		}
		for d := range sub.Deltas() {
			apply(d.Table)
		}
		if final != nil && final.Table != nil {
			apply(final.Table)
		}
		return tvr.FormatRelationTable(want.Schema, rel.Rows())
	}
	finalLate, err := late.Close() // non-last: detaches only
	if err != nil {
		t.Fatal(err)
	}
	finalEarly, err := early.Close() // last: completes the pipeline
	if err != nil {
		t.Fatal(err)
	}
	wantStr := tvr.FormatRelationTable(want.Schema, want.Rows)
	if got := reconstruct("late", late, finalLate); got != wantStr {
		t.Fatalf("late sharer snapshot differs:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(wantStr))
	}
	if got := reconstruct("early", early, finalEarly); got != wantStr {
		t.Fatalf("early sharer snapshot differs:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(wantStr))
	}
}

// TestLateSubscribeHeartbeatClock pins the stale-clock bugfix: the engine
// records the last heartbeat, so a subscription opened afterwards starts
// from it and its replay-armed EMIT AFTER DELAY timers fire immediately —
// its delta sequence is byte-identical to a subscription that was there all
// along receiving the same heartbeats. (A heartbeat is timeline input the
// recorded changelog does not carry, so the executable replay baseline here
// is the early subscriber, whose equivalence to QueryStream-given-the-same-
// timeline is established by TestLiveHeartbeat and the lifecycle property.)
func TestLateSubscribeHeartbeatClock(t *testing.T) {
	sql := `
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER DELAY INTERVAL '5' SECONDS`
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	bid := func(price int64, et types.Time) types.Row {
		return types.Row{types.NewInt(1), types.NewInt(1), types.NewInt(price), types.NewTimestamp(et)}
	}
	e := newBidEngine(t)
	opts := core.SubscribeOptions{}
	early, err := e.SubscribeStream(sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Arm a delay timer (deadline 6s), then fire it via a heartbeat.
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(1), bid(10, sec(2)))}); err != nil {
		t.Fatal(err)
	}
	e.Heartbeat(sec(10))
	// Late joiner: replays the bid (re-arming the 6s deadline) and must be
	// caught up to the 10s heartbeat so that timer fires NOW. Its output
	// column has another name, so it is another relation with a pipeline of
	// its own: the point is a fresh pipeline's clock, not the shared-attach
	// snapshot path.
	late, err := e.SubscribeStream(strings.Replace(sql, "maxPrice", "topPrice", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	// A second bid into the same window, at a ptime before the recorded
	// heartbeat (legal: heartbeats are not part of the changelog). For the
	// early subscriber the group re-arms at 5s+5s=10s and materializes a
	// second revision at the next heartbeat; a stale-clocked late joiner
	// would still hold the 6s timer and coalesce both bids into one
	// revision instead.
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(5), bid(25, sec(6)))}); err != nil {
		t.Fatal(err)
	}
	e.Heartbeat(sec(12))
	finalEarly, err := early.Close()
	if err != nil {
		t.Fatal(err)
	}
	finalLate, err := late.Close()
	if err != nil {
		t.Fatal(err)
	}
	gotEarly := collectStream(early, finalEarly)
	gotLate := collectStream(late, finalLate)
	earlyStr := tvr.FormatStreamTable(early.Schema(), gotEarly)
	lateStr := tvr.FormatStreamTable(early.Schema(), gotLate)
	if earlyStr != lateStr {
		t.Fatalf("late joiner's deltas differ from an early subscriber's (stale processing-time clock):\nearly:\n%s\nlate:\n%s",
			earlyStr, lateStr)
	}
	// Guard against vacuous success: the timeline above must produce the
	// two separate revisions (first the 10, then the 25 superseding it).
	if len(gotEarly) != 3 {
		t.Fatalf("early subscriber saw %d rows, want 3 (rev, undo, rev):\n%s", len(gotEarly), earlyStr)
	}
}

// planFor parses, plans and optimizes sql against e's catalog.
func planFor(t *testing.T, e *core.Engine, sql string) *plan.PlannedQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := plan.New(e, plan.Config{}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Optimize(pq)
}

// waitForGoroutines polls until the goroutine count settles back to the
// baseline, failing with a stack dump when it does not.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFailedRegisterReleasesPartitionedWorkers is the failed-subscribe leak
// regression: live.NewSession has already Start()ed the driver, so a
// registration that fails in the history snapshot must cancel the
// session — completing the driver and registering nothing — and leak no
// goroutine.
func TestFailedRegisterReleasesPartitionedWorkers(t *testing.T) {
	e := newBidEngine(t)
	boom := errors.New("history snapshot failed")
	base := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		pq := planFor(t, e, liveBidQuery)
		p, err := exec.Compile(pq)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := live.NewSession(p, live.Config{
			Name: liveBidQuery, Schema: pq.Root.Schema(),
			EmitKeys: pq.EmitKeyIdxs, Sources: []string{"bid"},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := live.NewManagerWith(live.Options{})
		if _, err := m.Subscribe("", live.CursorOpts{}, func() (*live.Session, error) { return sess, nil },
			func() ([]exec.Source, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("Subscribe error = %v, want %v", err, boom)
		}
		if m.Len() != 0 {
			t.Fatalf("failed Register left %d sessions registered", m.Len())
		}
		if err := p.Close(); err == nil {
			t.Fatal("failed Register left the started pipeline open")
		}
	}
	waitForGoroutines(t, base)
}

// TestSubscriptionGoroutineHygiene drives every subscription-ending path —
// failed subscribe (runtime error during history replay), cancel of a
// subscriber that never read, and cancel and graceful close, shared — and
// checks the goroutine count settles back to the baseline.
func TestSubscriptionGoroutineHygiene(t *testing.T) {
	e := newBidEngine(t)
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	for i := int64(0); i < 8; i++ {
		if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(i), types.Row{
			types.NewInt(i % 3), types.NewInt(i), types.NewInt(100 + i), types.NewTimestamp(sec(i)),
		})}); err != nil {
			t.Fatal(err)
		}
	}
	base := runtime.NumGoroutine()

	// Failed subscribe: the history replay hits a runtime error (integer
	// division by zero), the pipeline is already started.
	if _, err := e.SubscribeStream(`SELECT price / (price - price) q FROM Bid`,
		core.SubscribeOptions{}); err == nil {
		t.Fatal("expected a runtime error from the replayed division by zero")
	}
	if e.LiveSessions() != 0 {
		t.Fatalf("failed subscribe left %d sessions registered", e.LiveSessions())
	}

	// A subscriber that never reads, canceled with deltas still owed.
	stalled, err := e.SubscribeStream(`SELECT auction, price FROM Bid`, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(8); i < 16; i++ {
		if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(i), types.Row{
			types.NewInt(i % 3), types.NewInt(i), types.NewInt(100 + i), types.NewTimestamp(sec(i)),
		})}); err != nil {
			t.Fatal(err)
		}
	}
	stalled.Cancel()

	// Cancel and graceful close on a shared pair.
	a, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a.Cancel()
	if _, err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 0 || e.LiveSubscribers() != 0 {
		t.Fatalf("sessions=%d subscribers=%d after teardown, want 0/0",
			e.LiveSessions(), e.LiveSubscribers())
	}
	waitForGoroutines(t, base)
}

// truncate keeps failure output readable for large renderings.
func truncate(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("\n... (%d bytes truncated)", len(s)-max)
}
