package core_test

// Engine-level pins for the sharded ingest subsystem: many distinct standing
// queries spread across shard workers must observe delta sequences
// byte-identical to a serial-fan-out engine and to post-hoc replay, and
// checkpoint + WAL recovery must hold through the sharded commit path.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// shardBidQueries builds n distinct NEXMark standing queries (different
// tumble widths → different plan keys → different resident sessions), so the
// manager actually spreads them across shards.
func shardBidQueries(n int) []string {
	durs := []int{4, 5, 8, 10, 15, 20, 25, 30}
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf(`
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '%d' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend
EMIT STREAM AFTER WATERMARK`, durs[i%len(durs)])
	}
	return qs
}

func newShardedBidEngine(t testing.TB, shards int) *core.Engine {
	t.Helper()
	e := core.NewEngine(core.WithShards(shards))
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestShardedEngineMatchesSerial: six distinct standing queries on a
// 4-shard engine, fed the NEXMark stream in random batches with heartbeats
// interleaved, must each produce the stream a serial-fan-out twin produces —
// and both must equal the post-hoc QueryStream replay. This is the
// byte-identical acceptance pin at the engine layer.
func TestShardedEngineMatchesSerial(t *testing.T) {
	g := liveData(t)
	queries := shardBidQueries(6)
	last := g.Bids[len(g.Bids)-1]

	replayEngine := newBidEngine(t)
	if err := replayEngine.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}

	serial := newBidEngine(t)
	sharded := newShardedBidEngine(t, 4)
	defer sharded.Close()
	if got := len(sharded.ShardStats()); got != 4 {
		t.Fatalf("%d shards, want 4", got)
	}

	opts := core.SubscribeOptions{}
	type pair struct{ serial, sharded *live.Subscription }
	subs := make([]pair, len(queries))
	for i, q := range queries {
		ss, err := serial.SubscribeStream(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := sharded.SubscribeStream(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = pair{ss, sh}
	}

	rng := rand.New(rand.NewSource(42))
	pt := types.Time(0)
	for i := 0; i < len(g.Bids); {
		end := i + 1 + rng.Intn(8)
		if end > len(g.Bids) {
			end = len(g.Bids)
		}
		batch := g.Bids[i:end]
		if err := serial.AppendLog("Bid", batch); err != nil {
			t.Fatal(err)
		}
		if err := sharded.AppendLog("Bid", batch); err != nil {
			t.Fatal(err)
		}
		if ev := batch[len(batch)-1]; ev.Ptime > pt {
			pt = ev.Ptime
		}
		if rng.Intn(4) == 0 {
			// Heartbeats ride the same sharded fan-out; these queries have
			// no delay timers, so they must be delivery-invisible — any
			// divergence below means a heartbeat perturbed a shard.
			if err := serial.Heartbeat(pt); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Heartbeat(pt); err != nil {
				t.Fatal(err)
			}
		}
		i = end
	}
	// Read-your-writes through the sharded path: the one-shot query must
	// reflect every acknowledged append without an explicit Quiesce.
	wantTable, err := serial.QueryTable("SELECT * FROM Bid", last.Ptime)
	if err != nil {
		t.Fatal(err)
	}
	gotTable, err := sharded.QueryTable("SELECT * FROM Bid", last.Ptime)
	if err != nil {
		t.Fatal(err)
	}
	if wantTable.Format() != gotTable.Format() {
		t.Fatal("sharded one-shot query diverges from serial")
	}

	for i, p := range subs {
		q := queries[i]
		finalS, err := p.serial.Close()
		if err != nil {
			t.Fatalf("query %d serial close: %v", i, err)
		}
		finalSh, err := p.sharded.Close()
		if err != nil {
			t.Fatalf("query %d sharded close: %v", i, err)
		}
		wantRows := collectStream(p.serial, finalS)
		gotRows := collectStream(p.sharded, finalSh)
		got := tvr.FormatStreamTable(p.sharded.Schema(), gotRows)
		want := tvr.FormatStreamTable(p.serial.Schema(), wantRows)
		if got != want {
			t.Fatalf("query %d: sharded stream diverges from serial twin:\nserial:\n%s\nsharded:\n%s",
				i, truncate(want), truncate(got))
		}
		replay, err := replayEngine.QueryStream(q)
		if err != nil {
			t.Fatal(err)
		}
		if rep := tvr.FormatStreamTable(replay.Schema, replay.Rows); got != rep {
			t.Fatalf("query %d: sharded stream diverges from post-hoc replay:\nreplay:\n%s\nsharded:\n%s",
				i, truncate(rep), truncate(got))
		}
	}
}

// TestShardedWALRecovery: the crash-recovery contract must survive the
// sharded commit path end to end. Ingest with a mid-stream snapshot on a
// sharded engine (CheckpointAll drains the shards to one commit point),
// crash, recover snapshot + WAL tail into a fresh sharded engine (replay
// re-publishes through the sharded fan-out), and a late attacher to the
// recovered resident pipeline must equal the uninterrupted serial replay.
func TestShardedWALRecovery(t *testing.T) {
	g := liveData(t)
	last := g.Bids[len(g.Bids)-1]
	finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))

	replayEngine := newBidEngine(t)
	if err := replayEngine.AppendLog("Bid", append(append(tvr.Changelog{}, g.Bids...), finalWM)); err != nil {
		t.Fatal(err)
	}
	want, err := replayEngine.QueryStream(liveBidQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)

	rng := rand.New(rand.NewSource(17))
	opts := core.SubscribeOptions{}
	for _, split := range []int{1, len(g.Bids) / 2, len(g.Bids) - 1} {
		dataDir := t.TempDir()
		e := walBidEngine(t, dataDir, core.WithShards(4))
		early, err := e.SubscribeStream(liveBidQuery, opts)
		if err != nil {
			t.Fatal(err)
		}
		ingest := func(from, to int) {
			for i := from; i < to; {
				end := i + 1 + rng.Intn(8)
				if end > to {
					end = to
				}
				if err := e.AppendLog("Bid", g.Bids[i:end]); err != nil {
					t.Fatal(err)
				}
				i = end
			}
		}
		ingest(0, split)
		if _, seq, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		} else if seq != e.WALSeq() {
			t.Fatalf("split=%d: snapshot at seq %d, engine at %d", split, seq, e.WALSeq())
		}
		ingest(split, len(g.Bids))
		if err := e.Heartbeat(last.Ptime); err != nil {
			t.Fatal(err)
		}
		if err := e.AppendLog("Bid", tvr.Changelog{finalWM}); err != nil {
			t.Fatal(err)
		}
		crashSeq := e.WALSeq()
		early.Cancel() // the crashed process's subscriber is gone
		e.Close()      // crash: no final snapshot; just stop the shard workers

		r, info := recoverEngine(t, dataDir, core.WithShards(4))
		if info.LastSeq != crashSeq || r.WALSeq() != crashSeq {
			t.Fatalf("split=%d: recovered through seq %d (log says %d), crashed at %d",
				split, r.WALSeq(), info.LastSeq, crashSeq)
		}
		if got := r.LiveSessions(); got != 1 {
			t.Fatalf("split=%d: recovered engine has %d live sessions, want 1", split, got)
		}
		late, err := r.SubscribeStream(liveBidQuery, opts)
		if err != nil {
			t.Fatalf("split=%d: late attach to recovered session: %v", split, err)
		}
		if got := r.LiveSessions(); got != 1 {
			t.Fatalf("split=%d: late attach created a session (%d live), want to share", split, got)
		}
		final, err := late.Close()
		if err != nil {
			t.Fatal(err)
		}
		rows := collectStream(late, final)
		if got := tvr.FormatStreamTable(late.Schema(), rows); got != wantStr {
			t.Fatalf("split=%d: recovered sharded stream diverges from uninterrupted replay:\nwant:\n%s\ngot:\n%s",
				split, truncate(wantStr), truncate(got))
		}
	}
}

// TestShardedEngineCloseStopsWorkers: Close tears the shard workers down
// (goroutine hygiene), is idempotent, and Quiesce after Close returns.
func TestShardedEngineCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	e := newShardedBidEngine(t, 8)
	sub, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", liveData(t).Bids[:50]); err != nil {
		t.Fatal(err)
	}
	sub.Cancel()
	e.Close()
	e.Close()
	e.Quiesce() // workers are gone; must not hang
	waitForGoroutines(t, base)
}
