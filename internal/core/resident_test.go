package core_test

// Pins for one-shot reads answered from a resident pipeline: QueryTable and
// QueryStreamAt at an instant T fold the ptime <= T prefix of the retained
// output of the session resident under the same plan, whatever its readers'
// modes, instead of replaying the recorded history, and every such read
// must equal the replay a twin engine without subscriptions computes over
// the same commits.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/tvr"
	"repro/internal/types"
)

// residentQuery is one query of the resident-read matrix.
type residentQuery struct {
	name string
	sql  string
	// resident: the plan is close-inert, so a read may be answered from the
	// resident pipeline.
	resident bool
	// scansBoth: the plan scans Auction and Bid, so a commit that breaks
	// their merge order disqualifies its session for good.
	scansBoth bool
	// subscribe is the SQL of the standing subscription when it is not sql
	// itself, and table makes that subscription a table reader.
	subscribe string
	table     bool
}

func residentQueries(t testing.TB) []residentQuery {
	t.Helper()
	q4, err := nexmark.QueryByID(4)
	if err != nil {
		t.Fatal(err)
	}
	return []residentQuery{
		{name: "q4", sql: q4.SQL, resident: true, scansBoth: true},
		{name: "filter", sql: `SELECT auction, price FROM Bid WHERE MOD(auction, 3) = 0`, resident: true},
		{name: "windowed", sql: `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend
EMIT AFTER WATERMARK`, resident: true},
		{name: "order-limit", sql: `SELECT auction, MAX(price) AS top FROM Bid GROUP BY auction ORDER BY top DESC, auction LIMIT 5`, resident: true},
		// Served by a session only table readers use.
		{name: "table-reader", sql: `SELECT auction, bidder, price FROM Bid WHERE price > 5000`, resident: true, table: true},
		// ORDER BY and LIMIT are presentation: the read is served by the
		// pipeline of the plain query.
		{name: "order-limit-over-plain", sql: `SELECT auction, MIN(price) AS low FROM Bid GROUP BY auction ORDER BY low, auction LIMIT 5`,
			subscribe: `SELECT auction, MIN(price) AS low FROM Bid GROUP BY auction`, resident: true},
		// A second reader of that plan, presenting the fold the first one
		// shares in its iteration order: a read that reordered the other's
		// rows would show here.
		{name: "limit-over-plain", sql: `SELECT auction, MIN(price) AS low FROM Bid GROUP BY auction LIMIT 4`,
			subscribe: `SELECT auction, MIN(price) AS low FROM Bid GROUP BY auction`, resident: true},
		// Close flushes pending delay timers.
		{name: "delay", sql: `
SELECT TB.auction auction, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wend
EMIT AFTER DELAY INTERVAL '2' SECONDS`},
		// Close completes a bounded relation.
		{name: "table", sql: `SELECT C.name, COUNT(*) AS n FROM Auction A JOIN Category C ON A.category = C.id GROUP BY C.name`, scansBoth: true},
		// Close completes an AS OF snapshot.
		{name: "as-of", sql: `SELECT auction, price FROM Bid AS OF SYSTEM TIME TIMESTAMP '0:00:30' WHERE price > 5000`},
	}
}

// residentEngine registers the Auction and Bid streams and the Category
// table. shards > 0 enables the sharded fan-out; reg, when non-nil, carries
// the engine's metrics.
func residentEngine(t testing.TB, shards int, reg *obs.Registry) *core.Engine {
	t.Helper()
	opts := []core.Option{core.WithUnboundedGroupBy()}
	if shards > 0 {
		opts = append(opts, core.WithShards(shards))
	}
	if reg != nil {
		opts = append(opts, core.WithObs(reg))
	}
	e := core.NewEngine(opts...)
	t.Cleanup(e.Close)
	for _, err := range []error{
		e.RegisterStream("Auction", nexmark.AuctionSchema()),
		e.RegisterStream("Bid", nexmark.BidFullSchema()),
		e.RegisterTable("Category", nexmark.CategorySchema()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// residentReads reads the engine_query_resident_total counter.
func residentReads(reg *obs.Registry) int64 {
	return reg.Counter("engine_query_resident_total", "").Value()
}

type residentCommit struct {
	rel string
	log tvr.Changelog
	// reorders: the commit sorts before what was committed to the other
	// relation just before it, breaking the (ptime, scan order) merge order
	// for sessions that scan both Auction and Bid.
	reorders bool
}

// reorderCommits commits two bids before the two auctions they join, though
// the auctions carry the earlier ptimes (p+1, p+2 against p+3, p+4). The
// order is visible in Q4's table rendering: a category's row re-enters when
// its average changes, so replay moves category 2 and then category 1 to the
// end, while a pipeline fed in commit order moves 1 and then 2.
func reorderCommits(p types.Time) []residentCommit {
	ts := func(d types.Duration) types.Value { return types.NewTimestamp(p.Add(d)) }
	auction := func(id, category int64) types.Row {
		return types.Row{types.NewInt(id), types.NewString("lamp"), types.NewInt(999),
			types.NewInt(category), types.NewInt(1), ts(10 * types.Minute), ts(0)}
	}
	bid := func(auction, price int64) types.Row {
		return types.Row{types.NewInt(auction), types.NewInt(999), types.NewInt(price), ts(types.Second)}
	}
	return []residentCommit{
		{rel: "Bid", log: tvr.Changelog{
			tvr.InsertEvent(p+3, bid(90002, 10002)),
			tvr.InsertEvent(p+4, bid(90001, 10001)),
		}},
		{rel: "Auction", log: tvr.Changelog{
			tvr.InsertEvent(p+1, auction(90001, 1)),
			tvr.InsertEvent(p+2, auction(90002, 2)),
		}, reorders: true},
	}
}

// residentWorkload is the commit sequence of the matrix: the Category table
// at ptime 0, then the generated Auction and Bid changelogs (late rows
// included) merged in ptime order — ties go to Auction, Q4's first scan —
// and split into single-relation commits at random, with retractions of
// earlier bids mixed in. Three quarters in, reorderCommits breaks the merge
// order once; later events are shifted past it.
func residentWorkload(rng *rand.Rand) []residentCommit {
	g := nexmark.Generate(nexmark.GeneratorConfig{
		Seed: 11, NumEvents: 900, MaxOutOfOrderness: 2 * types.Second,
		WatermarkInterval: 3 * types.Second,
	})
	type tagged struct {
		rel string
		ev  tvr.Event
	}
	var seq []tagged
	var live []types.Row // bids inserted and not yet retracted
	wm := types.MinTime  // the Bid watermark: only bids above it are retracted, as a late one was never kept
	for i, j := 0, 0; i < len(g.Auctions) || j < len(g.Bids); {
		if j == len(g.Bids) || i < len(g.Auctions) && g.Auctions[i].Ptime <= g.Bids[j].Ptime {
			seq = append(seq, tagged{"Auction", g.Auctions[i]})
			i++
			continue
		}
		ev := g.Bids[j]
		j++
		seq = append(seq, tagged{"Bid", ev})
		if ev.Kind == tvr.Watermark {
			wm = ev.Wm
			continue
		}
		live = append(live, ev.Row)
		if rng.Intn(8) == 0 {
			k := rng.Intn(len(live))
			if live[k][3].Timestamp() > wm {
				seq = append(seq, tagged{"Bid", tvr.DeleteEvent(ev.Ptime, live[k])})
			}
			live = append(live[:k], live[k+1:]...)
		}
	}

	commits := []residentCommit{{rel: "Category", log: g.Categories}}
	cut := len(seq) * 3 / 4
	for i, tg := range seq {
		if i == cut {
			commits = append(commits, reorderCommits(seq[i-1].ev.Ptime)...)
		}
		if i >= cut {
			tg.ev.Ptime += 10
		}
		last := &commits[len(commits)-1]
		if last.rel != tg.rel || last.reorders || rng.Intn(3) == 0 {
			commits = append(commits, residentCommit{rel: tg.rel})
			last = &commits[len(commits)-1]
		}
		last.log = append(last.log, tg.ev)
	}
	return commits
}

// replayReads reads engine_query_replay_total for one reason.
func replayReads(reg *obs.Registry, reason string) int64 {
	return reg.Counter("engine_query_replay_total", "", "reason", reason).Value()
}

// residentRead is one one-shot read: the table (QueryTable) or stream
// (QueryStreamAt) rendering at processing time at.
type residentRead struct {
	at     types.Time
	stream bool
}

func (r residentRead) String() string {
	mode := "table"
	if r.stream {
		mode = "stream"
	}
	return fmt.Sprintf("%s at %s", mode, r.at)
}

// doRead runs r on e and returns its rows and their bordered rendering.
func doRead(e *core.Engine, sql string, r residentRead) (rows any, format string, err error) {
	if r.stream {
		res, err := e.QueryStreamAt(sql, r.at)
		if err != nil {
			return nil, "", err
		}
		return res.Rows, tvr.FormatStreamTable(res.Schema, res.Rows), nil
	}
	res, err := e.QueryTable(sql, r.at)
	if err != nil {
		return nil, "", err
	}
	return res.Rows, res.Format(), nil
}

// checkRead compares read r on live with the replay on twin, row for row
// and byte for byte, and checks the read was answered from the resident
// pipeline exactly when served. It returns the number of rows read.
func checkRead(t *testing.T, live, twin *core.Engine, reg *obs.Registry, q residentQuery, r residentRead, served bool) int {
	t.Helper()
	before := residentReads(reg)
	got, gotF, err := doRead(live, q.sql, r)
	if err != nil {
		t.Fatalf("%s %s: %v", q.name, r, err)
	}
	moved := residentReads(reg) - before
	want, wantF, err := doRead(twin, q.sql, r)
	if err != nil {
		t.Fatalf("%s %s (twin): %v", q.name, r, err)
	}
	if !reflect.DeepEqual(got, want) || gotF != wantF {
		t.Fatalf("%s %s: read (resident=%v) differs from replay:\ngot:\n%s\nwant:\n%s",
			q.name, r, moved == 1, truncate(gotF), truncate(wantF))
	}
	wantMoved := int64(0)
	if served {
		wantMoved = 1
	}
	if moved != wantMoved {
		t.Fatalf("%s %s: resident counter moved by %d, want %d", q.name, r, moved, wantMoved)
	}
	return reflect.ValueOf(got).Len()
}

// randomReads picks the reads of one read point: a table read at or just
// before one of the query's newest output ptimes on twin, table and stream
// reads at the current instant, at a random instant up to pt, and at
// instants drawn from the output ptimes (two exactly, and one tick before
// the first), then a table read at the current instant again. An
// off-by-one cut at a tied ptime shows on the exact instants. Table reads
// thus go forward (extending the session's fold over the previous read
// point's commits, often only part of the way), back (folding their own
// prefix) and forward again.
func randomReads(t *testing.T, rng *rand.Rand, twin *core.Engine, q residentQuery, pt types.Time) []residentRead {
	t.Helper()
	out, err := twin.QueryStreamAt(q.sql, types.MaxTime)
	if err != nil {
		t.Fatalf("%s (twin stream): %v", q.name, err)
	}
	ats := []types.Time{types.Time(rng.Int63n(int64(pt) + 1))}
	var reads []residentRead
	if n := len(out.Rows); n > 0 {
		exact := out.Rows[rng.Intn(n)].Ptime
		ats = append(ats, exact, exact-1, out.Rows[rng.Intn(n)].Ptime)
		// Often between the previous read point's output and the newest.
		recent := out.Rows[n-1-rng.Intn(min(n, 8))].Ptime - types.Time(rng.Intn(2))
		reads = append(reads, residentRead{at: recent})
	}
	reads = append(reads, residentRead{at: types.MaxTime}, residentRead{at: types.MaxTime, stream: true})
	for _, at := range ats {
		reads = append(reads, residentRead{at: at}, residentRead{at: at, stream: true})
	}
	// Forward again: the earlier reads must have left the session's fold
	// as the current-instant read extended it.
	return append(reads, residentRead{at: types.MaxTime})
}

// TestResidentReadMatchesReplay is the correctness guard for reads served
// from a resident pipeline. Every query of the matrix has a resident session
// (a stream reader's, a table reader's, or the plain query's under two
// readers with different ORDER BY … LIMIT); at random commit points each
// table and stream read, at the current instant, at earlier ones (some
// tying an output ptime) and at the current instant again, must equal a
// subscription-free twin's replay, and the resident counter must move
// exactly for the close-inert queries whose session was fed in merge order
// — after the injected reorder, no longer for Q4.
func TestResidentReadMatchesReplay(t *testing.T) {
	queries := residentQueries(t)
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7 + shards)))
			commits := residentWorkload(rng)
			reg := obs.NewRegistry()
			live := residentEngine(t, shards, reg)
			twin := residentEngine(t, 0, nil)

			subscribeAt := len(commits) / 4
			disordered := false
			pt := types.Time(0)
			reads := 0
			for k, c := range commits {
				if k == subscribeAt {
					for _, q := range queries {
						sql, subscribe := q.sql, live.SubscribeStream
						if q.subscribe != "" {
							sql = q.subscribe
						}
						if q.table {
							subscribe = live.SubscribeTable
						}
						sub, err := subscribe(sql, core.SubscribeOptions{})
						if err != nil {
							t.Fatalf("subscribe %s: %v", q.name, err)
						}
						t.Cleanup(sub.Cancel)
					}
				}
				for _, e := range []*core.Engine{live, twin} {
					if err := e.AppendLog(c.rel, c.log); err != nil {
						t.Fatalf("commit %d to %s: %v", k, c.rel, err)
					}
				}
				disordered = disordered || c.reorders
				pt = max(pt, c.log[len(c.log)-1].Ptime)
				if rng.Intn(5) == 0 {
					for _, e := range []*core.Engine{live, twin} {
						if err := e.Heartbeat(pt); err != nil {
							t.Fatal(err)
						}
					}
				}
				if k < subscribeAt || rng.Intn(10) != 0 && k != len(commits)-1 {
					continue
				}
				for _, q := range queries {
					served := q.resident && !(q.scansBoth && disordered)
					for _, r := range randomReads(t, rng, twin, q, pt) {
						n := checkRead(t, live, twin, reg, q, r, served)
						if k == len(commits)-1 && r.at == types.MaxTime && n == 0 {
							t.Errorf("%s %s: empty final result; the comparison is vacuous", q.name, r)
						}
					}
				}
				reads++
			}
			if !disordered || reads < 5 {
				t.Fatalf("workload exercised too little: disordered=%v, %d read points", disordered, reads)
			}
		})
	}
}

// TestResidentTableReadFoldsOnlyNewOutput pins the fold a resident session
// keeps for table reads, through engine_query_folded_rows_total: the first
// table read folds the retained prefix, a repeat read with no commit between
// folds nothing, a read after k more output rows folds exactly k, a read at
// an older instant folds its own prefix and leaves the fold alone, and so
// does a stream read, so the next current-instant read folds only the new
// suffix; a read at an instant between the fold and the newest output
// extends the fold up to that instant only. Every read equals the replay of
// a subscription-free twin.
func TestResidentTableReadFoldsOnlyNewOutput(t *testing.T) {
	q := residentQuery{name: "max-per-auction", sql: `SELECT auction, MAX(price) AS top FROM Bid GROUP BY auction`}
	reg := obs.NewRegistry()
	live := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := live.SubscribeStream(q.sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	folded := reg.Counter("engine_query_folded_rows_total", "")
	commit := func(bids ...[3]int64) {
		t.Helper()
		var log tvr.Changelog
		for _, b := range bids {
			p := types.Time(b[0])
			log = append(log, tvr.InsertEvent(p, types.Row{types.NewInt(b[1]), types.NewInt(7), types.NewInt(b[2]), types.NewTimestamp(p)}))
		}
		for _, e := range []*core.Engine{live, twin} {
			if err := e.AppendLog("Bid", log); err != nil {
				t.Fatal(err)
			}
		}
	}
	// outRows is the number of output rows with ptime <= at.
	outRows := func(at types.Time) int64 {
		t.Helper()
		res, err := twin.QueryStreamAt(q.sql, at)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(res.Rows))
	}
	read := func(r residentRead, want int64) {
		t.Helper()
		before := folded.Value()
		checkRead(t, live, twin, reg, q, r, true)
		if got := folded.Value() - before; got != want {
			t.Fatalf("%s folded %d rows, want %d", r, got, want)
		}
	}
	now := residentRead{at: types.MaxTime}

	// +(1,100) +(2,200) -(1,100) +(1,300)
	commit([3]int64{10, 1, 100}, [3]int64{20, 2, 200}, [3]int64{30, 1, 300})
	read(now, 4)
	read(now, 0)
	// -(2,200) +(2,250) +(3,50)
	before := outRows(types.MaxTime)
	commit([3]int64{40, 2, 250}, [3]int64{50, 3, 50})
	if k := outRows(types.MaxTime) - before; k != 3 {
		t.Fatalf("the second commit output %d rows, want 3", k)
	}
	read(now, 3)
	read(residentRead{at: 25}, outRows(25))
	read(residentRead{at: 45, stream: true}, outRows(45))
	read(now, 0)
	// -(1,300) +(1,400) at 60, +(4,10) at 70: a read at 65 extends the fold
	// by the two rows up to it, and no further.
	commit([3]int64{60, 1, 400}, [3]int64{70, 4, 10})
	read(residentRead{at: 65}, 2)
	read(now, 1)
}

// TestResidentReadFailsOnAbsentRetraction: a client may ingest a Delete of
// a Bid it never inserted, and a passthrough plan carries it to its output,
// where a replay's fold fails on it. A read served from the resident
// pipeline, table or stream, must fail with the replay's error; a read cut
// before the Delete must still equal the replay.
func TestResidentReadFailsOnAbsentRetraction(t *testing.T) {
	q := residentQuery{name: "passthrough", sql: `SELECT auction, price FROM Bid`}
	reg := obs.NewRegistry()
	live := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := live.SubscribeStream(q.sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	bid := func(p types.Time, auction, price int64) types.Row {
		return types.Row{types.NewInt(auction), types.NewInt(7), types.NewInt(price), types.NewTimestamp(p)}
	}
	log := tvr.Changelog{tvr.InsertEvent(10, bid(10, 1, 100)), tvr.DeleteEvent(20, bid(20, 2, 200))}
	for _, e := range []*core.Engine{live, twin} {
		if err := e.AppendLog("Bid", log); err != nil {
			t.Fatal(err)
		}
	}
	for _, stream := range []bool{false, true} {
		r := residentRead{at: types.MaxTime, stream: stream}
		before := residentReads(reg)
		_, _, err := doRead(live, q.sql, r)
		_, _, want := doRead(twin, q.sql, r)
		if want == nil || !strings.Contains(want.Error(), "retraction of absent row") {
			t.Fatalf("%s (twin): err %v, want a retraction of an absent row", r, want)
		}
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: err %v, want the replay's %v", r, err, want)
		}
		if moved := residentReads(reg) - before; moved != 1 {
			t.Fatalf("%s: resident counter moved by %d, want 1", r, moved)
		}
		checkRead(t, live, twin, reg, q, residentRead{at: 15, stream: stream}, true)
	}
}

// TestResidentReadFallsBackAfterReorder: a Q4 session fed a Bid commit at
// ptime 100 and then an Auction commit at ptime 50 did not see them in merge
// order, so its retained output is not what replay computes. Every read,
// table or stream, now or at an earlier instant, must replay instead: equal
// to a twin without subscriptions, resident counter unmoved, each replay
// counted as out of order.
func TestResidentReadFallsBackAfterReorder(t *testing.T) {
	queries := residentQueries(t)
	q4 := queries[0]
	reg := obs.NewRegistry()
	live := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := live.SubscribeStream(q4.sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	commits := reorderCommits(48)
	commits[0].log[0].Ptime, commits[0].log[1].Ptime = 100, 100
	commits[1].log[0].Ptime, commits[1].log[1].Ptime = 50, 50
	for _, c := range commits {
		for _, e := range []*core.Engine{live, twin} {
			if err := e.AppendLog(c.rel, c.log); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := checkRead(t, live, twin, reg, q4, residentRead{at: types.MaxTime}, false); n != 2 {
		t.Fatalf("Q4 over the reordered commits: %d rows, want 2", n)
	}
	reads := []residentRead{{at: 50}, {at: 99}, {at: 100}, {at: 50, stream: true}, {at: 100, stream: true}, {at: types.MaxTime, stream: true}}
	for _, r := range reads {
		checkRead(t, live, twin, reg, q4, r, false)
	}
	if got := replayReads(reg, "out_of_order"); got != int64(len(reads)+1) {
		t.Fatalf("%d reads counted as out-of-order replays, want %d", got, len(reads)+1)
	}
}

// TestResidentReadFallsBackAfterRestore: the merge-order bit is not
// checkpointed, so a session restored from a snapshot counts as out of
// order and its reads replay, table or stream, at any instant, though every
// commit reached it in order.
func TestResidentReadFallsBackAfterRestore(t *testing.T) {
	q := residentQueries(t)[1] // the filter
	reg := obs.NewRegistry()
	e := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := e.SubscribeStream(q.sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	g := liveData(t)
	for _, x := range []*core.Engine{e, twin} {
		if err := x.AppendLog("Bid", g.Bids); err != nil {
			t.Fatal(err)
		}
	}
	mid := g.Bids[len(g.Bids)/2].Ptime
	reads := []residentRead{{at: types.MaxTime}, {at: mid}, {at: types.MaxTime, stream: true}, {at: mid, stream: true}}
	for _, r := range reads {
		checkRead(t, e, twin, reg, q, r, true)
	}

	restoredReg := obs.NewRegistry()
	restored := restartEngine(t, e, core.WithObs(restoredReg))
	if restored.LiveSessions() != 1 {
		t.Fatalf("%d sessions restored, want 1", restored.LiveSessions())
	}
	for _, r := range reads {
		checkRead(t, restored, twin, restoredReg, q, r, false)
	}
	if got := replayReads(restoredReg, "out_of_order"); got != int64(len(reads)) {
		t.Fatalf("%d reads counted as out-of-order replays, want %d", got, len(reads))
	}
}

// TestResidentReadReplayReasons: a read no resident session can answer
// replays, equal to a twin without subscriptions, and
// engine_query_replay_total counts it under its reason: a plan that emits
// at Close, a plan nobody subscribed to, and a session whose retained
// output overflowed its cap.
func TestResidentReadReplayReasons(t *testing.T) {
	queries := residentQueries(t)
	filter, delay := queries[1], queries[7]
	reg := obs.NewRegistry()
	live := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	for _, sub := range []struct {
		sql     string
		maxRows int
	}{{delay.sql, 0}, {filter.sql, 5}} {
		s, err := live.SubscribeStream(sub.sql, core.SubscribeOptions{MaxRetainedRows: sub.maxRows})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Cancel()
	}
	g := liveData(t)
	for _, e := range []*core.Engine{live, twin} {
		if err := e.AppendLog("Bid", g.Bids); err != nil {
			t.Fatal(err)
		}
	}
	mid := g.Bids[len(g.Bids)/2].Ptime
	for _, c := range []struct {
		q      residentQuery
		reason string
	}{
		{delay, "not_inert"},
		{queries[3], "no_session"},
		{filter, "overflow"},
	} {
		for _, r := range []residentRead{{at: types.MaxTime}, {at: mid, stream: true}} {
			before := replayReads(reg, c.reason)
			checkRead(t, live, twin, reg, c.q, r, false)
			if moved := replayReads(reg, c.reason) - before; moved != 1 {
				t.Fatalf("%s %s: %s replays moved by %d, want 1", c.q.name, r, c.reason, moved)
			}
		}
	}
}

// TestResidentReadDuringCommits race-checks the quiesce-then-read path: a
// goroutine commits bids through a sharded engine while three table readers
// run beside it, extending and sharing the session's fold. Every read must
// be answered from the resident pipeline and equal the replay after some
// whole commit — never a partial one — no earlier than the last commit
// acknowledged before the read began, and never older than its reader's
// previous read.
func TestResidentReadDuringCommits(t *testing.T) {
	const q = `SELECT auction, price, dateTime FROM Bid WHERE price > 2000`
	g := liveData(t)
	var commits []tvr.Changelog
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < len(g.Bids); {
		end := min(len(g.Bids), i+1+rng.Intn(6))
		commits = append(commits, g.Bids[i:end])
		i = end
	}
	// states[f] is the range of commit counts whose replay renders as f.
	type span struct{ lo, hi int }
	states := map[string]span{}
	twin := newBidEngine(t)
	for k := 0; k <= len(commits); k++ {
		if k > 0 {
			if err := twin.AppendLog("Bid", commits[k-1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := twin.QueryTable(q, types.MaxTime)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Format()
		s, ok := states[f]
		if !ok {
			s.lo = k
		}
		s.hi = k
		states[f] = s
	}

	reg := obs.NewRegistry()
	e := core.NewEngine(core.WithShards(4), core.WithObs(reg))
	t.Cleanup(e.Close)
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(q, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	var acked atomic.Int64
	done := make(chan struct{})
	var commitErr error
	go func() {
		defer close(done)
		for _, c := range commits {
			if err := e.AppendLog("Bid", c); err != nil {
				commitErr = err
				return
			}
			acked.Add(1)
		}
	}()
	// Each reader's reads must move forward; together they extend and
	// share the session's one fold.
	const readers = 3
	var reads atomic.Int64
	lastLo := make([]int, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prevLo := 0
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true // one more read, after the last ack
				default:
				}
				floor := int(acked.Load())
				res, err := e.QueryTable(q, types.MaxTime)
				if err != nil {
					t.Error(err)
					return
				}
				n := reads.Add(1)
				s, ok := states[res.Format()]
				switch {
				case !ok:
					t.Errorf("reader %d, read %d matches the replay after no whole commit:\n%s", r, n, truncate(res.Format()))
					return
				case s.hi < floor:
					t.Errorf("reader %d, read %d reflects at most %d commits, but %d were acknowledged before it", r, n, s.hi, floor)
					return
				case s.hi < prevLo:
					t.Errorf("reader %d, read %d went back to %d commits after a read of at least %d", r, n, s.hi, prevLo)
					return
				}
				prevLo = s.lo
			}
			lastLo[r] = prevLo
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	for r, lo := range lastLo {
		if lo != states[mustFormat(t, twin, q)].lo {
			t.Fatalf("reader %d: the read after the last acknowledgement missed commits", r)
		}
	}
	if got := residentReads(reg); got != reads.Load() {
		t.Fatalf("%d of %d reads answered from the resident pipeline, want all", got, reads.Load())
	}
}

func mustFormat(t *testing.T, e *core.Engine, q string) string {
	t.Helper()
	res, err := e.QueryTable(q, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	return res.Format()
}

// fuzzCommits is FuzzResidentRead's fixed input: ~300 generated Person,
// Auction and Bid events (watermarks included), merged in ptime order and
// re-stamped with distinct ptimes, so committing them in order is merge
// order for every plan, then split into single-relation commits of at most
// 16 events. The Category table is the first commit.
var fuzzCommits = sync.OnceValue(func() []residentCommit {
	g := nexmark.Generate(nexmark.GeneratorConfig{
		Seed: 5, NumEvents: 300, MaxOutOfOrderness: 2 * types.Second,
		WatermarkInterval: 3 * types.Second,
		PersonProportion:  3, AuctionProportion: 9, BidProportion: 38,
	})
	logs := []struct {
		rel string
		log tvr.Changelog
	}{{"Person", g.Persons}, {"Auction", g.Auctions}, {"Bid", g.Bids}}
	pos := make([]int, len(logs))
	commits := []residentCommit{{rel: "Category", log: g.Categories}}
	for pt := types.Time(1); ; pt++ {
		next := -1
		for i, l := range logs {
			if pos[i] < len(l.log) && (next < 0 || l.log[pos[i]].Ptime < logs[next].log[pos[next]].Ptime) {
				next = i
			}
		}
		if next < 0 {
			return commits
		}
		ev := logs[next].log[pos[next]]
		pos[next]++
		ev.Ptime = pt * types.Time(types.Millisecond)
		last := &commits[len(commits)-1]
		if last.rel != logs[next].rel || len(last.log) == 16 {
			commits = append(commits, residentCommit{rel: logs[next].rel})
			last = &commits[len(commits)-1]
		}
		last.log = append(last.log, ev)
	}
})

// FuzzResidentRead is the differential check of resident reads over
// arbitrary SQL: an engine with a standing subscription to the query
// (opened a third of the way into the commits, so its session both replays
// history and is fed live) must answer QueryTable and QueryStreamAt at the
// fuzzed instant exactly as a subscription-free twin replays them, and
// either both fail or neither does. Any panic fails the target. The seeds
// are the NEXMark queries at the current instant, mid-log and at an output
// ptime; go test runs them, and
//
//	go test -run '^$' -fuzz=FuzzResidentRead -fuzztime=60s ./internal/core
//
// explores further.
func FuzzResidentRead(f *testing.F) {
	commits := fuzzCommits()
	mid := commits[len(commits)/2].log[0].Ptime
	for _, q := range nexmark.Queries() {
		for _, at := range []types.Time{types.MaxTime, mid, mid + 3*types.Time(types.Millisecond)} {
			f.Add(q.SQL, int64(at))
		}
	}
	f.Fuzz(func(t *testing.T, sql string, at int64) {
		if len(sql) > 2000 {
			t.Skip("long SQL")
		}
		engines := [2]*core.Engine{}
		for i := range engines {
			e := core.NewEngine(core.WithUnboundedGroupBy())
			t.Cleanup(e.Close)
			for _, err := range []error{
				e.RegisterStream("Person", nexmark.PersonSchema()),
				e.RegisterStream("Auction", nexmark.AuctionSchema()),
				e.RegisterStream("Bid", nexmark.BidFullSchema()),
				e.RegisterTable("Category", nexmark.CategorySchema()),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			engines[i] = e
		}
		live, twin := engines[0], engines[1]
		for k, c := range commits {
			if k == len(commits)/3 {
				if sub, err := live.SubscribeStream(sql, core.SubscribeOptions{}); err == nil {
					t.Cleanup(sub.Cancel)
				}
			}
			for _, e := range engines {
				if err := e.AppendLog(c.rel, c.log); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range []residentRead{{at: types.Time(at)}, {at: types.Time(at), stream: true}} {
			got, gotF, gotErr := doRead(live, sql, r)
			want, wantF, wantErr := doRead(twin, sql, r)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, replay error %v", r, gotErr, wantErr)
			}
			if gotErr == nil && (!reflect.DeepEqual(got, want) || gotF != wantF) {
				t.Fatalf("%s differs from replay:\ngot:\n%s\nwant:\n%s", r, truncate(gotF), truncate(wantF))
			}
		}
	})
}
