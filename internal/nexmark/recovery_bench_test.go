package nexmark

// The recovery benchmark: how expensive is durable recovery, and what does
// it buy? For a standing query over the NEXMark bid stream it measures the
// engine checkpoint's size and write time, the time to restore a fresh
// engine (catalog + resident pipeline) from the bytes, and the time the
// pre-checkpoint recovery path needs — compiling the query and replaying the
// full recorded history through a new pipeline. It also measures steady-state
// durability: the bytes and fsyncs the write-ahead log spends committing a
// fixed delta, at two history sizes 10x apart, against the cost of a full
// snapshot at each — the WAL side must stay flat. Results merge into the
// Recovery section of BENCH_live.json (BENCH_live_short.json for reduced
// scale) next to the serving benchmark's subscription rows. Run via
// `make bench-recovery`.

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/types"
	"repro/internal/wal"
)

// measureRecovery builds one loaded engine (subscription + full ingested
// history), then times checkpoint, restore, and replay-rebuild.
func measureRecovery(t *testing.T, g *Generated, runs int) bench.RecoveryResult {
	t.Helper()
	opts := core.SubscribeOptions{}

	// The serving engine whose durability we measure.
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(liveBenchSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if err := e.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	ckptNs, err := bench.MedianNs(runs, func() error {
		ckpt.Reset()
		return e.CheckpointAll(&ckpt)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Restore path: fresh engine from the checkpoint bytes. The restored
	// engines' resident pipelines are torn down outside the timed region by
	// attaching and canceling a cursor.
	var restoredEngines []*core.Engine
	restoreNs, err := bench.MedianNs(runs, func() error {
		restored := core.NewEngine()
		if err := restored.RestoreAll(bytes.NewReader(ckpt.Bytes())); err != nil {
			return err
		}
		restoredEngines = append(restoredEngines, restored)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, restored := range restoredEngines {
		if restored.LiveSessions() != 1 {
			t.Fatalf("restored engine has %d sessions, want 1", restored.LiveSessions())
		}
		s, err := restored.SubscribeStream(liveBenchSQL, opts)
		if err != nil {
			t.Fatal(err)
		}
		s.Cancel() // last cursor: closes the restored pipeline
	}

	// Replay path: what recovery cost before checkpoints — an engine that
	// still has the recorded history (rebuilt outside the timed region)
	// compiles the standing query and replays every event through it.
	replayEngine := core.NewEngine()
	if err := replayEngine.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	if err := replayEngine.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	// Each run compiles a fresh pipeline: the previous run's Cancel closed
	// its only cursor, so no session is resident for the new one to join.
	prevID := -1
	replayNs, err := bench.MedianNs(runs, func() error {
		s, err := replayEngine.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
		if err != nil {
			return err
		}
		id := s.Stats().PipelineID
		s.Cancel()
		if id == prevID || replayEngine.LiveSessions() != 0 {
			return fmt.Errorf("replay run reused pipeline %d (%d left resident), want a fresh one", id, replayEngine.LiveSessions())
		}
		prevID = id
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	return bench.RecoveryResult{
		Query:           "Per-auction windowed max (EMIT AFTER WATERMARK)",
		Mode:            live.Stream.String(),
		Events:          len(g.Bids),
		CheckpointBytes: int64(ckpt.Len()),
		CheckpointNs:    ckptNs,
		RestoreNs:       restoreNs,
		ReplayNs:        replayNs,
	}
}

// measureDurability measures the steady-state cost of staying durable: with
// `history` events already resident (catalog + standing query), commit the
// NEXT `delta` events through an fsync-per-batch write-ahead log and count
// the bytes and fsyncs that took — then price the alternative, a full engine
// snapshot at this history size. The WAL figure should track the delta; the
// snapshot figure tracks the whole history, which is exactly why the log
// exists.
func measureDurability(t *testing.T, g *Generated, history, delta, batch int) bench.RecoveryResult {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	sub, err := e.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if err := e.AppendLog("Bid", g.Bids[:history]); err != nil {
		t.Fatal(err)
	}
	// The subscriber never reads: its deltas wait in the session's
	// retained output, and no commit waits on it.

	w, err := wal.Open(t.TempDir(), e.WALSeq()+1, wal.Options{Mode: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := e.AttachWAL(w); err != nil {
		t.Fatal(err)
	}

	before := w.Stats()
	for i := history; i < history+delta; {
		end := i + batch
		if end > history+delta {
			end = history + delta
		}
		if err := e.AppendLog("Bid", g.Bids[i:end]); err != nil {
			t.Fatal(err)
		}
		i = end
	}
	after := w.Stats()

	var ckpt bytes.Buffer
	if err := e.CheckpointAll(&ckpt); err != nil {
		t.Fatal(err)
	}
	return bench.RecoveryResult{
		Query:            "WAL steady-state durability (delta vs full snapshot)",
		Mode:             live.Stream.String(),
		Events:           history,
		DeltaEvents:      delta,
		WalIntervalBytes: after.SyncedBytes - before.SyncedBytes,
		WalIntervalSyncs: after.Syncs - before.Syncs,
		CheckpointBytes:  int64(ckpt.Len()),
	}
}

// TestRecoveryBench records checkpoint size and restore-vs-replay latency
// into the Recovery section of BENCH_live.json / BENCH_live_short.json.
func TestRecoveryBench(t *testing.T) {
	n, runs := 30000, 3
	if testing.Short() || raceEnabled {
		n, runs = 4000, 1
	}
	n = benchEventCount(n)
	short := testing.Short() || raceEnabled
	g := Generate(GeneratorConfig{Seed: 42, NumEvents: n, MaxOutOfOrderness: 2 * types.Second})

	out := "../../BENCH_live.json"
	if short {
		out = "../../BENCH_live_short.json"
	}
	// Merge into the existing record: the subscription rows belong to
	// TestLiveBench, the recovery rows to us.
	rec, err := bench.LoadLive(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		rec = bench.NewLive("nexmark-live", short)
	}
	rec.Recovery = nil

	res := measureRecovery(t, g, runs)
	rec.AddRecovery(res)
	t.Logf("checkpoint %.1f KiB in %s, restore %s, full-history replay %s (%.1fx)",
		float64(res.CheckpointBytes)/1024,
		time.Duration(res.CheckpointNs), time.Duration(res.RestoreNs),
		time.Duration(res.ReplayNs), float64(res.ReplayNs)/float64(res.RestoreNs))
	// The acceptance bar — restoring operator state beats replaying the whole
	// recorded history — is a wall-clock comparison, so like the other
	// wall-clock bars it arms only under NEXMARK_BENCH_STRICT=1, at full bench
	// scale: reduced short/race runs shrink the replay work (and the race
	// detector taxes the allocation-heavy decode path) until the comparison
	// measures instrumentation, not recovery.
	strict := os.Getenv("NEXMARK_BENCH_STRICT") == "1"
	if strict && !short && res.RestoreNs >= res.ReplayNs {
		t.Errorf("restore (%s) is not faster than full-history replay (%s)",
			time.Duration(res.RestoreNs), time.Duration(res.ReplayNs))
	}
	// Steady-state durability: fix the per-interval delta and grow the
	// resident history 10x. The WAL interval cost (bytes fsynced for the
	// delta) must stay flat while the full-snapshot alternative grows with
	// the history — durability cost proportional to the delta, not to
	// everything ever ingested.
	histBase, deltaN := 30000, 3000
	if short {
		histBase, deltaN = 1500, 500
	}
	histBase = benchEventCount(histBase)
	// NumEvents counts the whole person/auction/bid mix; the Bid changelog
	// gets ~46/50 of it plus watermarks. Overshoot, then require enough.
	total := 10*histBase + deltaN
	gd := Generate(GeneratorConfig{Seed: 43, NumEvents: total + total/4, MaxOutOfOrderness: 2 * types.Second})
	if len(gd.Bids) < total {
		t.Fatalf("generated only %d Bid events, need %d", len(gd.Bids), total)
	}
	var durRows []bench.RecoveryResult
	for _, hist := range []int{histBase, 10 * histBase} {
		res := measureDurability(t, gd, hist, deltaN, 100)
		rec.AddRecovery(res)
		durRows = append(durRows, res)
		t.Logf("history=%d delta=%d: wal interval %.1f KiB in %d fsyncs, full snapshot %.1f KiB",
			res.Events, res.DeltaEvents, float64(res.WalIntervalBytes)/1024,
			res.WalIntervalSyncs, float64(res.CheckpointBytes)/1024)
	}
	// Byte counts are deterministic, so these checks need no
	// NEXMARK_BENCH_STRICT; they arm at full scale only because the ratios
	// are scale-dependent.
	if !short {
		small, big := durRows[0], durRows[1]
		if big.WalIntervalBytes > 2*small.WalIntervalBytes {
			t.Errorf("WAL interval cost grew with history: %d B at %d events vs %d B at %d — not delta-proportional",
				big.WalIntervalBytes, big.Events, small.WalIntervalBytes, small.Events)
		}
		if big.CheckpointBytes < 4*small.CheckpointBytes {
			t.Errorf("snapshot cost unexpectedly flat (%d B at %d events vs %d B at %d) — the baseline comparison is meaningless",
				big.CheckpointBytes, big.Events, small.CheckpointBytes, small.Events)
		}
	}

	if benchWriteEnabled() {
		if err := rec.WriteFile(out); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Logf("not refreshing %s (set NEXMARK_BENCH_WRITE=1 / use make bench-*)", out)
	}
}
