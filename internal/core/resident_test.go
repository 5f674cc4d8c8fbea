package core_test

// Pins for one-shot table reads answered from a resident pipeline: at the
// current instant QueryTable folds the retained output of the session
// resident under the same plan, whatever its readers' modes, instead of
// replaying the recorded history, and every such read must equal the replay
// a twin engine without subscriptions computes over the same commits.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	// resident: the plan is close-inert, so a current-instant read may be
	// answered from the resident pipeline.
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

// checkResidentRead compares a current-instant read on live with the replay
// on twin, row for row and byte for byte, and checks the read was answered
// from the resident pipeline exactly when served.
func checkResidentRead(t *testing.T, live, twin *core.Engine, reg *obs.Registry, q residentQuery, served bool) *core.TableResult {
	t.Helper()
	before := residentReads(reg)
	got, err := live.QueryTable(q.sql, types.MaxTime)
	if err != nil {
		t.Fatalf("%s: %v", q.name, err)
	}
	moved := residentReads(reg) - before
	want, err := twin.QueryTable(q.sql, types.MaxTime)
	if err != nil {
		t.Fatalf("%s (twin): %v", q.name, err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || got.Format() != want.Format() {
		t.Fatalf("%s: read (resident=%v) differs from replay:\ngot:\n%s\nwant:\n%s",
			q.name, moved == 1, truncate(got.Format()), truncate(want.Format()))
	}
	wantMoved := int64(0)
	if served {
		wantMoved = 1
	}
	if moved != wantMoved {
		t.Fatalf("%s: resident counter moved by %d, want %d", q.name, moved, wantMoved)
	}
	return got
}

// TestResidentReadMatchesReplay is the correctness guard for reads served
// from a resident pipeline. Every query of the matrix has a resident session
// (a stream reader's, a table reader's, or the plain query's under an
// ORDER BY … LIMIT read); at random commit points each current-instant read
// must equal a subscription-free twin's replay, and the resident counter
// must move exactly for the close-inert queries whose session was fed in
// merge order — after the injected reorder, no longer for Q4.
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
						sub, err := subscribe(sql, core.SubscribeOptions{Buffer: 2*len(commits) + 16})
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
					res := checkResidentRead(t, live, twin, reg, q, served)
					if k == len(commits)-1 && len(res.Rows) == 0 {
						t.Errorf("%s: empty final result; the comparison is vacuous", q.name)
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

// TestResidentReadFallsBackAfterReorder: a Q4 session fed a Bid commit at
// ptime 100 and then an Auction commit at ptime 50 did not see them in merge
// order, so its retained output is not what replay computes. The read must
// replay instead: equal to a twin without subscriptions, counter unmoved.
func TestResidentReadFallsBackAfterReorder(t *testing.T) {
	queries := residentQueries(t)
	q4 := queries[0]
	reg := obs.NewRegistry()
	live := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := live.SubscribeStream(q4.sql, core.SubscribeOptions{Buffer: 16})
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
	if res := checkResidentRead(t, live, twin, reg, q4, false); len(res.Rows) != 2 {
		t.Fatalf("Q4 over the reordered commits: %d rows, want 2", len(res.Rows))
	}
}

// TestResidentReadFallsBackAfterRestore: the merge-order bit is not
// checkpointed, so a session restored from a snapshot counts as out of
// order and its reads replay, though every commit reached it in order.
func TestResidentReadFallsBackAfterRestore(t *testing.T) {
	q := residentQueries(t)[1] // the filter
	reg := obs.NewRegistry()
	e := residentEngine(t, 0, reg)
	twin := residentEngine(t, 0, nil)
	sub, err := e.SubscribeStream(q.sql, core.SubscribeOptions{Buffer: 16})
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
	checkResidentRead(t, e, twin, reg, q, true)

	restoredReg := obs.NewRegistry()
	restored := restartEngine(t, e, core.WithObs(restoredReg))
	if restored.LiveSessions() != 1 {
		t.Fatalf("%d sessions restored, want 1", restored.LiveSessions())
	}
	checkResidentRead(t, restored, twin, restoredReg, q, false)
}

// TestResidentReadDuringCommits race-checks the quiesce-then-read path: a
// goroutine commits bids through a sharded engine while reads run beside
// it. Every read must be answered from the resident pipeline and equal the
// replay after some whole commit — never a partial one — no earlier than
// the last commit acknowledged before the read began, and never older than
// the previous read.
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
	sub, err := e.SubscribeStream(q, core.SubscribeOptions{Buffer: len(commits) + 16})
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
	reads, prevLo := int64(0), 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more read, after the last ack
		default:
		}
		floor := int(acked.Load())
		res, err := e.QueryTable(q, types.MaxTime)
		if err != nil {
			t.Fatal(err)
		}
		reads++
		s, ok := states[res.Format()]
		switch {
		case !ok:
			t.Fatalf("read %d matches the replay after no whole commit:\n%s", reads, truncate(res.Format()))
		case s.hi < floor:
			t.Fatalf("read %d reflects at most %d commits, but %d were acknowledged before it", reads, s.hi, floor)
		case s.hi < prevLo:
			t.Fatalf("read %d went back to %d commits after a read of at least %d", reads, s.hi, prevLo)
		}
		prevLo = s.lo
	}
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	if prevLo != states[mustFormat(t, twin, q)].lo {
		t.Fatal("the read after the last acknowledgement missed commits")
	}
	if got := residentReads(reg); got != reads {
		t.Fatalf("%d of %d reads answered from the resident pipeline, want all", got, reads)
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

// TestResidentReadWhileBlockParked: a Block-policy subscriber that stopped
// reading parks the serial fan-out inside a commit, holding the manager's
// ordering lock and the session's ingest lock. A read of the same SQL must
// still return, answered from the resident pipeline with the parked commit
// in it (its output is retained before the delivery parks), and equal to
// replay.
func TestResidentReadWhileBlockParked(t *testing.T) {
	const q = `SELECT auction, price FROM Bid WHERE price > 10`
	g := liveData(t)
	var bids tvr.Changelog
	for _, ev := range g.Bids {
		if ev.Kind == tvr.Insert {
			bids = append(bids, ev)
		}
	}
	reg := obs.NewRegistry()
	e := core.NewEngine(core.WithObs(reg))
	t.Cleanup(e.Close)
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	twin := newBidEngine(t)
	sub, err := e.SubscribeStream(q, core.SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []tvr.Changelog{bids[:1], bids[1:2]} {
		if err := twin.AppendLog("Bid", c); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AppendLog("Bid", bids[:1]); err != nil { // fills the buffer
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() { parked <- e.AppendLog("Bid", bids[1:2]) }()
	parks := reg.Counter("live_parks_total", "")
	for deadline := time.Now().Add(10 * time.Second); parks.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second commit never parked")
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	read := make(chan *core.TableResult, 1)
	go func() {
		defer wg.Done()
		res, err := e.QueryTable(q, types.MaxTime)
		if err != nil {
			t.Error(err)
		}
		read <- res
	}()
	select {
	case res := <-read:
		if res != nil && res.Format() != mustFormat(t, twin, q) {
			t.Errorf("read beside a parked delivery:\n%s\nwant:\n%s", res.Format(), mustFormat(t, twin, q))
		}
	case <-time.After(10 * time.Second):
		t.Error("read stalled behind a parked Block delivery")
	}
	if got := residentReads(reg); got != 1 {
		t.Errorf("resident counter = %d, want 1", got)
	}
	for range 2 { // unpark the commit
		<-sub.Deltas()
	}
	if err := <-parked; err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	wg.Wait()
}
