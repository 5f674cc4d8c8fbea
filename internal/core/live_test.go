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
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/nexmark"
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

// shardOpts are the engine options of a parts=N subtest: parts=1 keeps the
// serial fan-out, a larger count partitions the resident pipelines across
// that many shard workers.
func shardOpts(parts int) []core.Option {
	if parts == 1 {
		return nil
	}
	return []core.Option{core.WithShards(parts)}
}

// partsEngine is newBidEngine for a parts=N subtest; the shard workers, if
// any, stop when the test ends.
func partsEngine(t testing.TB, parts int) *core.Engine {
	t.Helper()
	e := core.NewEngine(shardOpts(parts)...)
	t.Cleanup(e.Close)
	if got := len(e.ShardStats()); parts > 1 && got != parts {
		t.Fatalf("%d shards, want %d", got, parts)
	}
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
// sequence is byte-identical to QueryStream replay over the full log — on
// the serial fan-out and on a sharded one.
func TestLiveStreamMatchesReplay(t *testing.T) {
	g := liveData(t)
	for _, parts := range []int{1, 4} {
		parts := parts
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
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
			liveEngine := partsEngine(t, parts)
			half := len(g.Bids) / 2
			if err := liveEngine.AppendLog("Bid", g.Bids[:half]); err != nil {
				t.Fatal(err)
			}
			sub, err := liveEngine.SubscribeStream(liveBidQuery, core.SubscribeOptions{
				Buffer: len(g.Bids) + 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range g.Bids[half:] {
				ingestEvent(t, liveEngine, "Bid", ev)
			}
			liveEngine.Quiesce() // sharded fan-out applies changes asynchronously
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
	sub, err := liveEngine.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 64})
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
	sub, err := liveEngine.SubscribeTable(sql, core.SubscribeOptions{Buffer: len(g.Bids) + 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range g.Bids {
		ingestEvent(t, liveEngine, "Bid", ev)
	}
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
	for d := range sub.Deltas() {
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
	if err := e.AppendLog("Bid", bad); err == nil {
		t.Fatal("expected validation error")
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
	sub, err := e.SubscribeStream(sql, core.SubscribeOptions{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	sec := func(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }
	row := types.Row{types.NewInt(1), types.NewInt(1), types.NewInt(10), types.NewTimestamp(sec(2))}
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(1), row)}); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-sub.Deltas():
		t.Fatalf("delta before the delay elapsed: %+v", d)
	default:
	}
	// Advance processing time past the 6s deadline: the timer fires.
	e.Heartbeat(sec(10))
	select {
	case d := <-sub.Deltas():
		if len(d.Stream) != 1 || d.Stream[0].Row[2].Int() != 10 {
			t.Fatalf("unexpected delta: %+v", d)
		}
	default:
		t.Fatal("no delta after heartbeat fired the delay timer")
	}
	sub.Cancel()
	if sub.Err() != live.ErrClosed {
		t.Errorf("Err after cancel = %v, want ErrClosed", sub.Err())
	}
	if e.LiveSessions() != 0 {
		t.Errorf("%d sessions after cancel, want 0", e.LiveSessions())
	}
}

// TestSharedPlanDedup: identical (SQL, mode) subscriptions
// share one resident pipeline — observable via LiveSessions/LiveSubscribers
// and the PipelineID/Subscribers stats — while any difference in the key (or
// Exclusive) gets its own pipeline.
func TestSharedPlanDedup(t *testing.T) {
	e := newBidEngine(t)
	opts := core.SubscribeOptions{Buffer: 64}
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
	// A different mode or an explicit Exclusive each get their own resident
	// pipeline.
	subTable, err := e.SubscribeTable(`SELECT auction, price FROM Bid`, opts)
	if err != nil {
		t.Fatal(err)
	}
	subExcl, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 64, Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	if e.LiveSessions() != 3 || e.LiveSubscribers() != 4 {
		t.Fatalf("sessions=%d subscribers=%d, want 3/4", e.LiveSessions(), e.LiveSubscribers())
	}
	for name, st := range map[string]live.Stats{
		"table": subTable.Stats(), "exclusive": subExcl.Stats(),
	} {
		if st.PipelineID == stA.PipelineID {
			t.Errorf("%s subscription shares pipeline %d with the stream plan", name, st.PipelineID)
		}
		if st.Subscribers != 1 {
			t.Errorf("%s Subscribers = %d, want 1", name, st.Subscribers)
		}
	}
	// The departure of one sharer must not disturb the other; the
	// pipeline dies with the last one.
	subA.Cancel()
	if e.LiveSessions() != 3 || e.LiveSubscribers() != 3 {
		t.Fatalf("sessions=%d subscribers=%d after one sharer canceled, want 3/3",
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
	select {
	case d := <-subB.Deltas():
		if len(d.Stream) != 1 {
			t.Fatalf("surviving sharer delta = %+v", d)
		}
	default:
		t.Fatal("surviving sharer received no delta after its peer canceled")
	}
	subB.Cancel()
	subTable.Cancel()
	subExcl.Cancel()
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
	opts := core.SubscribeOptions{Buffer: 8}
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
	select {
	case d := <-a.Deltas():
		t.Fatalf("'a b' subscriber received a delta for the 'a  b' row: %+v", d)
	default:
	}
	select {
	case d := <-b.Deltas():
		if len(d.Stream) != 1 || d.Stream[0].Row[0].Int() != 7 {
			t.Fatalf("'a  b' subscriber delta = %+v", d)
		}
	default:
		t.Fatal("'a  b' subscriber missed its row")
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
// property: K subscribers attach to one SQL at random points of a randomly
// Feed-split ingest (the first from the start, the rest late, each paired
// with a dedicated Exclusive subscription opened at the same instant), and
// every subscriber's concatenated delta rows — snapshot hand-off included —
// must be byte-identical to its dedicated twin AND to a post-hoc QueryStream
// replay, on the serial fan-out and on a sharded one. A final far-future
// watermark completes all windows before closing, so close-time flushes are
// empty and the property covers every subscriber, not just the last closer.
func TestSharedPlanMatchesDedicatedAndReplay(t *testing.T) {
	g := liveData(t)
	last := g.Bids[len(g.Bids)-1]
	finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))
	for _, parts := range []int{1, 4} {
		parts := parts
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
			replayEngine := newBidEngine(t)
			if err := replayEngine.AppendLog("Bid", append(append(tvr.Changelog{}, g.Bids...), finalWM)); err != nil {
				t.Fatal(err)
			}
			want, err := replayEngine.QueryStream(liveBidQuery)
			if err != nil {
				t.Fatal(err)
			}
			wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)

			e := partsEngine(t, parts)
			rng := rand.New(rand.NewSource(int64(31 * parts)))
			attachAt := []int{0, len(g.Bids) / 3, 2 * len(g.Bids) / 3}
			opts := core.SubscribeOptions{Buffer: len(g.Bids) + 16}
			exclOpts := opts
			exclOpts.Exclusive = true
			type pair struct{ shared, dedicated *live.Subscription }
			var pairs []pair
			i, next := 0, 0
			for i <= len(g.Bids) {
				for next < len(attachAt) && attachAt[next] <= i {
					shared, err := e.SubscribeStream(liveBidQuery, opts)
					if err != nil {
						t.Fatal(err)
					}
					dedicated, err := e.SubscribeStream(liveBidQuery, exclOpts)
					if err != nil {
						t.Fatal(err)
					}
					pairs = append(pairs, pair{shared, dedicated})
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
				if err := e.AppendLog("Bid", g.Bids[i:end]); err != nil {
					t.Fatal(err)
				}
				i = end
			}
			if err := e.AppendLog("Bid", tvr.Changelog{finalWM}); err != nil {
				t.Fatal(err)
			}
			// One resident pipeline serves all shared subscribers; each
			// dedicated twin has its own.
			k := len(attachAt)
			if e.LiveSessions() != 1+k || e.LiveSubscribers() != 2*k {
				t.Fatalf("sessions=%d subscribers=%d, want %d/%d",
					e.LiveSessions(), e.LiveSubscribers(), 1+k, 2*k)
			}
			sharedID := pairs[0].shared.Stats().PipelineID
			for pi, p := range pairs {
				if p.shared.Stats().PipelineID != sharedID {
					t.Fatalf("pair %d shared pipeline id %d, want %d", pi, p.shared.Stats().PipelineID, sharedID)
				}
				if p.dedicated.Stats().PipelineID == sharedID {
					t.Fatalf("pair %d dedicated subscription landed on the shared pipeline", pi)
				}
			}
			// Close shared cursors in attach order (only the last completes
			// the pipeline) and every dedicated pipeline individually; all
			// 2K sequences must match the replay.
			for pi, p := range pairs {
				for which, sub := range map[string]*live.Subscription{"shared": p.shared, "dedicated": p.dedicated} {
					final, err := sub.Close()
					if err != nil {
						t.Fatalf("pair %d %s close: %v", pi, which, err)
					}
					rows := collectStream(sub, final)
					if got := tvr.FormatStreamTable(sub.Schema(), rows); got != wantStr {
						t.Fatalf("pair %d %s subscriber differs from replay:\ngot (%d rows):\n%s\nwant (%d rows):\n%s",
							pi, which, len(rows), truncate(got), len(want.Rows), truncate(wantStr))
					}
				}
			}
			if e.LiveSessions() != 0 {
				t.Fatalf("%d sessions left after closing every subscriber", e.LiveSessions())
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
	opts := core.SubscribeOptions{Buffer: len(g.Bids) + 16}
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
	// Exclusive on both sides: the point is the resident pipeline's clock,
	// not the shared-attach snapshot path.
	opts := core.SubscribeOptions{Buffer: 16, Exclusive: true}
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
	// caught up to the 10s heartbeat so that timer fires NOW.
	late, err := e.SubscribeStream(sql, opts)
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
	lateStr := tvr.FormatStreamTable(late.Schema(), gotLate)
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
// session — completing the driver and registering nothing — and the
// manager's shard workers must still stop cleanly on Close.
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
			Name: liveBidQuery, Mode: live.Stream, Schema: pq.Root.Schema(),
			EmitKeys: pq.EmitKeyIdxs, Sources: []string{"bid"},
		})
		if err != nil {
			t.Fatal(err)
		}
		m := live.NewManagerWith(live.Options{Shards: 4})
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
		m.Close()
	}
	waitForGoroutines(t, base)
}

// TestSubscriptionGoroutineHygiene drives every subscription-ending path —
// failed subscribe (runtime error during history replay), slow-consumer
// drop, cancel, and graceful close, shared — and checks the goroutine count
// settles back to the baseline.
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

	// Slow-consumer drop.
	drop, err := e.SubscribeStream(`SELECT auction, price FROM Bid`,
		core.SubscribeOptions{Buffer: 1, Policy: live.DropWithError})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(8); i < 16 && drop.Err() == nil; i++ {
		if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(sec(i), types.Row{
			types.NewInt(i % 3), types.NewInt(i), types.NewInt(100 + i), types.NewTimestamp(sec(i)),
		})}); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(drop.Err(), live.ErrSlowConsumer) {
		t.Fatalf("drop path Err = %v, want ErrSlowConsumer", drop.Err())
	}

	// Cancel and graceful close on a shared pair.
	a, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 64})
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
