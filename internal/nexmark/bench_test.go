package nexmark

// In-process standing-query benchmarks: what the HTTP harness under
// benchmark/ does not measure. BenchmarkMultiQuery is the sharded fan-out's
// scaling row (8 disjoint standing queries on one producer, serial against
// 8 shard workers), BenchmarkSharedFanout is K cursors on one resident
// pipeline, and BenchmarkRecovery prices a checkpoint, a restore from it
// and the full-history replay a restore replaces. `go test -cpu` picks the
// procs:
//
//	go test ./internal/nexmark -run '^$' -bench . -cpu 1,2
//
// TestWALIntervalFlat is the durability fact as a plain test: its bounds
// are byte counts, so they hold on any machine.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/wal"
)

// liveBenchSQL is the benchmarks' standing query: a per-auction windowed
// rollup with watermark-driven EMIT (the harness's windowed_agg query).
const liveBenchSQL = `
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '10' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`

// benchBids is the Bid changelog every benchmark ingests: 30k generated
// events, about 28k of them bids.
func benchBids() tvr.Changelog {
	return Generate(GeneratorConfig{Seed: 42, NumEvents: 30000, MaxOutOfOrderness: 2 * types.Second}).Bids
}

// bidEngine returns an engine with the Bid stream registered.
func bidEngine(tb testing.TB, opts ...core.Option) *core.Engine {
	tb.Helper()
	e := core.NewEngine(opts...)
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		tb.Fatal(err)
	}
	return e
}

// reportEventsPerSec reports ingest throughput over the timed region.
func reportEventsPerSec(b *testing.B, events int) {
	b.ReportMetric(float64(b.N*events)/b.Elapsed().Seconds(), "events/s")
}

// multiQuerySQL returns n disjoint standing queries over the Bid stream:
// the same windowed rollup at n distinct tumble widths, so each compiles to
// its own resident pipeline and the shard workers can spread them.
func multiQuerySQL(n int) []string {
	durs := []int{4, 5, 8, 10, 15, 20, 25, 30}
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf(`
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '%d' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`, durs[i%len(durs)])
	}
	return qs
}

// outputTotals sums the deltas and rows a run delivered.
type outputTotals struct{ deltas, rows int64 }

// multiQueryRun feeds bids one event per commit to `queries` disjoint
// standing queries on an engine with `shards` shard workers (0: the serial
// fan-out), with the benchmark timer running only from the first commit
// until Quiesce, so a sharded run pays for every apply it enqueued.
func multiQueryRun(b *testing.B, bids tvr.Changelog, shards, queries int) outputTotals {
	b.StopTimer()
	e := bidEngine(b, core.WithShards(shards))
	defer e.Close()
	subs := make([]*live.Subscription, queries)
	for i, sql := range multiQuerySQL(queries) {
		var err error
		if subs[i], err = e.SubscribeStream(sql, core.SubscribeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	if got := e.LiveSessions(); got != queries {
		b.Fatalf("%d resident pipelines, want %d disjoint queries", got, queries)
	}
	b.StartTimer()
	for _, ev := range bids {
		if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
			b.Fatal(err)
		}
	}
	e.Quiesce()
	b.StopTimer()
	var tot outputTotals
	for _, sub := range subs {
		if _, err := sub.Close(); err != nil {
			b.Fatal(err)
		}
		st := sub.Stats()
		tot.deltas += st.DeltasOut
		tot.rows += st.RowsOut
	}
	if tot.deltas == 0 {
		b.Fatal("multi-query run delivered no deltas")
	}
	return tot
}

// BenchmarkMultiQuery is the sharded fan-out's scaling row: 8 disjoint
// standing queries fed by one producer, under the serial fan-out (every
// apply on the committing goroutine) and under 8 shard workers. Every run
// must deliver the serial run's delta and row totals.
func BenchmarkMultiQuery(b *testing.B) {
	const queries = 8
	bids := benchBids()
	// The reference run is timed on the parent, whose figures go unreported.
	serial := multiQueryRun(b, bids, 0, queries)
	for _, shards := range []int{0, queries} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := multiQueryRun(b, bids, shards, queries); got != serial {
					b.Fatalf("shards=%d delivered %d deltas/%d rows, the serial fan-out %d/%d",
						shards, got.deltas, got.rows, serial.deltas, serial.rows)
				}
			}
			reportEventsPerSec(b, len(bids))
		})
	}
}

// BenchmarkSharedFanout is K=4 subscribers of one query, sharing one
// resident pipeline that applies each commit once for all four cursors.
// The consumer is inline: after every one-event commit it receives each
// cursor's owed deltas, so the time covers commit, apply and delivery.
func BenchmarkSharedFanout(b *testing.B) {
	const k = 4
	bids := benchBids()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := bidEngine(b)
		subs := make([]*live.Subscription, k)
		for j := range subs {
			var err error
			if subs[j], err = e.SubscribeStream(liveBenchSQL, core.SubscribeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		if got := e.LiveSessions(); got != 1 {
			b.Fatalf("%d resident pipelines for %d subscribers of one query, want 1", got, k)
		}
		received := make([]int64, k)
		b.StartTimer()
		for _, ev := range bids {
			if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
				b.Fatal(err)
			}
			for j, sub := range subs {
				for owed := sub.Stats().DeltasOut; received[j] < owed; received[j]++ {
					<-sub.Deltas()
				}
			}
		}
		b.StopTimer()
		for j, sub := range subs {
			if received[j] == 0 || received[j] != received[0] {
				b.Fatalf("cursor %d received %d deltas, cursor 0 %d", j, received[j], received[0])
			}
			sub.Cancel()
		}
	}
	reportEventsPerSec(b, len(bids))
}

// BenchmarkRecovery prices durable recovery for the standing query over
// the full Bid history: writing the engine checkpoint (and its size),
// restoring a fresh engine from it, and the alternative a restore replaces,
// compiling the query on an engine that holds the history and replaying
// every event through the new pipeline.
func BenchmarkRecovery(b *testing.B) {
	bids := benchBids()
	e := bidEngine(b)
	sub, err := e.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer sub.Cancel()
	if err := e.AppendLog("Bid", bids); err != nil {
		b.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := e.CheckpointAll(&ckpt); err != nil {
		b.Fatal(err)
	}

	b.Run("checkpoint", func(b *testing.B) {
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := e.CheckpointAll(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
	})
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			restored := core.NewEngine()
			if err := restored.RestoreAll(bytes.NewReader(ckpt.Bytes())); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if got := restored.LiveSessions(); got != 1 {
				b.Fatalf("restored engine has %d sessions, want 1", got)
			}
			// Attaching and canceling the last cursor closes the
			// restored pipeline.
			s, err := restored.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			s.Cancel()
			b.StartTimer()
		}
	})
	b.Run("replay", func(b *testing.B) {
		b.StopTimer()
		history := bidEngine(b)
		if err := history.AppendLog("Bid", bids); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			// The previous iteration's Cancel closed the only cursor, so
			// each subscribe compiles and replays a fresh pipeline.
			s, err := history.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
			if err != nil {
				b.Fatal(err)
			}
			s.Cancel()
			if n := history.LiveSessions(); n != 0 {
				b.Fatalf("%d pipelines left resident after the last cursor canceled", n)
			}
		}
	})
}

// walInterval commits the `delta` bids after the first `history`, 100 per
// batch, through a write-ahead log that syncs every batch, with the standing
// query resident, and returns the bytes the log synced for them beside the
// size of a full engine snapshot at that point.
func walInterval(t *testing.T, bids tvr.Changelog, history, delta int) (walBytes, snapshotBytes int64) {
	t.Helper()
	const batch = 100
	e := bidEngine(t)
	sub, err := e.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The subscriber never reads: its deltas wait in the session's
	// retained output, and no commit waits on it.
	defer sub.Cancel()
	if err := e.AppendLog("Bid", bids[:history]); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(t.TempDir(), e.WALSeq()+1, wal.Options{Mode: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := e.AttachWAL(w); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	for i := history; i < history+delta; i += batch {
		if err := e.AppendLog("Bid", bids[i:min(i+batch, history+delta)]); err != nil {
			t.Fatal(err)
		}
	}
	after := w.Stats()
	var ckpt bytes.Buffer
	if err := e.CheckpointAll(&ckpt); err != nil {
		t.Fatal(err)
	}
	return after.SyncedBytes - before.SyncedBytes, int64(ckpt.Len())
}

// TestWALIntervalFlat pins why the write-ahead log exists: with the
// per-interval delta fixed and the resident history grown 10x, the bytes
// the log syncs for the delta stay flat (at most 2x) while a full snapshot
// grows with the history (at least 4x).
func TestWALIntervalFlat(t *testing.T) {
	const histBase, delta = 30000, 3000
	// NumEvents counts the whole person/auction/bid mix; the Bid changelog
	// gets ~46/50 of it plus watermarks. Overshoot, then require enough.
	total := 10*histBase + delta
	bids := Generate(GeneratorConfig{Seed: 43, NumEvents: total + total/4, MaxOutOfOrderness: 2 * types.Second}).Bids
	if len(bids) < total {
		t.Fatalf("generated only %d Bid events, need %d", len(bids), total)
	}
	smallWAL, smallSnap := walInterval(t, bids, histBase, delta)
	bigWAL, bigSnap := walInterval(t, bids, 10*histBase, delta)
	t.Logf("delta=%d: wal interval %d B at history %d, %d B at %d; full snapshot %d B, %d B",
		delta, smallWAL, histBase, bigWAL, 10*histBase, smallSnap, bigSnap)
	if bigWAL > 2*smallWAL {
		t.Errorf("WAL interval cost grew with history: %d B at %d events vs %d B at %d — not delta-proportional",
			bigWAL, 10*histBase, smallWAL, histBase)
	}
	if bigSnap < 4*smallSnap {
		t.Errorf("snapshot cost unexpectedly flat (%d B at %d events vs %d B at %d) — the comparison is meaningless",
			bigSnap, 10*histBase, smallSnap, histBase)
	}
}
