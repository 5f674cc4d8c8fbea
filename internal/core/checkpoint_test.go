package core_test

// Engine-level checkpoint/restore tests: the engine (catalog + resident
// standing-query pipelines) is checkpointed mid-stream, a fresh engine is
// restored from the bytes, ingestion continues there, and every rendering
// must be byte-identical to the uninterrupted run. A late attacher to the
// restored shared session must still equal its dedicated twin — the restored
// pipeline serves snapshot hand-offs without rescanning history.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// restartEngine checkpoints e and restores a brand-new engine, built with
// opts, from the bytes — the in-process stand-in for a process crash +
// restart.
func restartEngine(t *testing.T, e *core.Engine, opts ...core.Option) *core.Engine {
	t.Helper()
	var buf bytes.Buffer
	if err := e.CheckpointAll(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	restored := core.NewEngine(opts...)
	t.Cleanup(restored.Close)
	if err := restored.RestoreAll(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return restored
}

// TestCheckpointRestoreLive is the engine-level half of the issue's property
// test: ingest a random prefix through a shared standing query, restart the
// engine from a checkpoint at that split point, finish ingestion on the
// restored engine, and require (a) a late attacher to the restored shared
// session to be byte-identical to a dedicated twin opened at the same
// instant on a second engine fed the same commits, and (b) both to equal
// the uninterrupted replay.
func TestCheckpointRestoreLive(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("parts=1", func(t *testing.T) {
		g := liveData(t)
		last := g.Bids[len(g.Bids)-1]
		finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))
		// Uninterrupted reference: post-hoc replay over the full log.
		replayEngine := newBidEngine(t)
		if err := replayEngine.AppendLog("Bid", append(append(tvr.Changelog{}, g.Bids...), finalWM)); err != nil {
			t.Fatal(err)
		}
		want, err := replayEngine.QueryStream(liveBidQuery)
		if err != nil {
			t.Fatal(err)
		}
		wantStr := tvr.FormatStreamTable(want.Schema, want.Rows)

		rng := rand.New(rand.NewSource(7))
		splits := []int{1, len(g.Bids) / 3, len(g.Bids) / 2, len(g.Bids) - 1}
		opts := core.SubscribeOptions{}
		for _, split := range splits {
			e := newBidEngine(t)
			early, err := e.SubscribeStream(liveBidQuery, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Random ptime-axis batches up to the split point.
			for i := 0; i < split; {
				end := i + 1 + rng.Intn(8)
				if end > split {
					end = split
				}
				if err := e.AppendLog("Bid", g.Bids[i:end]); err != nil {
					t.Fatal(err)
				}
				i = end
			}

			// Process restart at the split point.
			restored := restartEngine(t, e)
			if got := restored.LiveSessions(); got != 1 {
				t.Fatalf("split=%d: restored engine has %d live sessions, want 1", split, got)
			}
			// The early subscriber's prefix deltas, for the continuation
			// check below. Cancel releases the abandoned engine.
			early.Cancel()
			prefixRows := collectStream(early, nil)

			// A late attacher lands on the restored resident pipeline
			// (no new session); its dedicated twin, on a second engine
			// fed the same history, compiles its own and replays it.
			late, err := restored.SubscribeStream(liveBidQuery, opts)
			if err != nil {
				t.Fatalf("split=%d: late attach to restored session: %v", split, err)
			}
			if got := restored.LiveSessions(); got != 1 {
				t.Fatalf("split=%d: late attach created a session (%d live), want to share the restored one", split, got)
			}
			twinEng := twinEngine(t, g.Bids[:split])
			twin, err := twinEng.SubscribeStream(liveBidQuery, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Finish the stream on the restored engine and the twin's.
			appendLog := func(log tvr.Changelog) {
				t.Helper()
				for _, e := range []*core.Engine{restored, twinEng} {
					if err := e.AppendLog("Bid", log); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := split; i < len(g.Bids); {
				end := i + 1 + rng.Intn(8)
				if end > len(g.Bids) {
					end = len(g.Bids)
				}
				appendLog(g.Bids[i:end])
				i = end
			}
			appendLog(tvr.Changelog{finalWM})

			lateFinal, err := late.Close()
			if err != nil {
				t.Fatal(err)
			}
			lateRows := collectStream(late, lateFinal)
			twinFinal, err := twin.Close()
			if err != nil {
				t.Fatal(err)
			}
			twinRows := collectStream(twin, twinFinal)

			lateStr := tvr.FormatStreamTable(late.Schema(), lateRows)
			twinStr := tvr.FormatStreamTable(twin.Schema(), twinRows)
			if lateStr != twinStr {
				t.Fatalf("split=%d: late attacher to restored session differs from dedicated twin:\nlate:\n%s\ntwin:\n%s",
					split, truncate(lateStr), truncate(twinStr))
			}
			if lateStr != wantStr {
				t.Fatalf("split=%d: restored output differs from uninterrupted replay:\ngot:\n%s\nwant:\n%s",
					split, truncate(lateStr), truncate(wantStr))
			}
			// Continuation check: the rows delivered before the restart
			// plus the restored pipeline's post-restart rows must be
			// exactly the uninterrupted sequence — the restored driver
			// resumed, it did not re-derive or skip anything.
			combined := append(append([]tvr.StreamRow{}, prefixRows...), lateRows[len(prefixRows):]...)
			if got := tvr.FormatStreamTable(late.Schema(), combined); got != wantStr {
				t.Fatalf("split=%d: pre-restart + post-restart delta concatenation differs from replay", split)
			}
		}
	})
}

// TestCheckpointRestoreTable: a Table-mode standing query survives restart —
// the restored session's late-attach consolidated diff reconstructs the
// QueryTable snapshot, and continued diffs keep it consistent.
func TestCheckpointRestoreTable(t *testing.T) {
	g := liveData(t)
	sql := `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend`
	e := newBidEngine(t)
	sub, err := e.SubscribeTable(sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	split := len(g.Bids) / 2
	if err := e.AppendLog("Bid", g.Bids[:split]); err != nil {
		t.Fatal(err)
	}
	restored := restartEngine(t, e)
	sub.Cancel()

	late, err := restored.SubscribeTable(sql, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.AppendLog("Bid", g.Bids[split:]); err != nil {
		t.Fatal(err)
	}
	final, err := late.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the snapshot from the diffs.
	snap := tvr.NewRelation()
	apply := func(d live.Delta) {
		if d.Table == nil {
			return
		}
		for _, r := range d.Table.Inserted {
			snap.Insert(r)
		}
		for _, r := range d.Table.Deleted {
			if err := snap.Delete(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	for d := range late.Deltas() {
		apply(d)
	}
	if final != nil {
		apply(*final)
	}
	want, err := restored.QueryTable(sql, types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	wantRel := tvr.NewRelation()
	for _, r := range want.Rows {
		wantRel.Insert(r)
	}
	if !snap.Equal(wantRel) {
		t.Fatalf("restored table subscription reconstructs %s, QueryTable says %s", snap, wantRel)
	}
}

// TestCheckpointSkipsSupersededSessions: a session that overflowed its
// retain cap and was superseded by a late subscriber's successor keeps its
// cursors until they go, but no longer holds its plan key, so a checkpoint
// taken while both are open restores exactly one session under the key: the
// successor's, which answers a reconnect with its full snapshot.
func TestCheckpointSkipsSupersededSessions(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	pred, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{MaxRetainedRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer pred.Cancel()
	if err := e.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	succ, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Cancel()
	if e.LiveSessions() != 2 || succ.Stats().PipelineID == pred.Stats().PipelineID {
		t.Fatalf("%d sessions, pipelines %d and %d: want the predecessor and its successor",
			e.LiveSessions(), pred.Stats().PipelineID, succ.Stats().PipelineID)
	}
	restored := restartEngine(t, e)
	if got := restored.LiveSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want only the successor", got)
	}
	// The restored session is the successor, which retains its output:
	// a reconnect attaches to it and is handed what the successor's own
	// subscriber has received.
	back, err := restored.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatalf("reconnect to the restored successor: %v", err)
	}
	defer back.Cancel()
	if got := restored.LiveSessions(); got != 1 {
		t.Fatalf("reconnect built a pipeline: %d sessions, want 1", got)
	}
	if got, want := tvr.FormatStreamTable(back.Schema(), collectPending(t, back, 0)), tvr.FormatStreamTable(succ.Schema(), collectPending(t, succ, 0)); got != want {
		t.Fatalf("reconnect hand-off differs from the successor's deltas:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(want))
	}
}

// TestRestoreNeedsEmptyEngine: restore is a startup operation.
func TestRestoreNeedsEmptyEngine(t *testing.T) {
	e := newBidEngine(t)
	var buf bytes.Buffer
	if err := e.CheckpointAll(&buf); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreAll(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a non-empty engine should fail")
	}
}

// TestRetainedOverflowDegradesLateAttach: the SubscribeOptions.MaxRetainedRows
// cap bounds the shared session's retention; once exceeded, the session
// keeps serving its subscriber, and a late subscriber whose own cap cannot
// hold the recorded history's output gets live.ErrRetainedOverflow and
// leaves no pipeline behind. (TestSharedPlanOverflowSuccessor covers a late
// subscriber whose cap can.)
func TestRetainedOverflowDegradesLateAttach(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	capped := core.SubscribeOptions{MaxRetainedRows: 8}
	first, err := e.SubscribeStream(liveBidQuery, capped)
	if err != nil {
		t.Fatal(err)
	}
	// Ingest enough completed windows to exceed 8 retained output rows.
	if err := e.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	last := g.Bids[len(g.Bids)-1]
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))}); err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.RowsOut <= 8 {
		t.Fatalf("test needs more than 8 output rows to overflow, got %d", st.RowsOut)
	}
	// Late attach under the same cap degrades to the documented error
	// instead of unbounded retention.
	_, err = e.SubscribeStream(liveBidQuery, capped)
	if !errors.Is(err, live.ErrRetainedOverflow) {
		t.Fatalf("late subscribe after overflow: err = %v, want ErrRetainedOverflow", err)
	}
	// The session (and its existing subscriber) survives, alone.
	if e.LiveSessions() != 1 || first.Err() != nil {
		t.Fatalf("overflow damaged the resident session: sessions=%d err=%v", e.LiveSessions(), first.Err())
	}
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(last.Ptime+2, g.Bids[0].Row)}); err != nil {
		t.Fatal(err)
	}
	if st := first.Stats(); st.EventsIn != int64(len(g.Bids))+2 {
		t.Fatalf("resident session saw %d events after the refusal, want %d", st.EventsIn, len(g.Bids)+2)
	}
}

// TestOverflowedSessionCheckpointRestore: an overflowed session still
// checkpoints and restores (its pipeline state is intact); the restored copy
// has no output to hand off either, so a late subscriber gets a successor.
func TestOverflowedSessionCheckpointRestore(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	if _, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{
		MaxRetainedRows: 4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	restored := restartEngine(t, e)
	if got := restored.LiveSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want 1", got)
	}
	sub, err := restored.SubscribeStream(liveBidQuery, core.SubscribeOptions{})
	if err != nil {
		t.Fatalf("late subscribe to a restored overflowed session: %v", err)
	}
	defer sub.Cancel()
	if got := restored.LiveSessions(); got != 2 {
		t.Fatalf("%d sessions after the late subscribe, want the restored one and a successor", got)
	}
}
