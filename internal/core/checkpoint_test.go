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
	"fmt"
	"math/rand"
	"testing"
	"time"

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
// instant, and (b) both to equal the uninterrupted replay — on the serial
// fan-out and on a sharded one.
func TestCheckpointRestoreLive(t *testing.T) {
	g := liveData(t)
	last := g.Bids[len(g.Bids)-1]
	finalWM := tvr.WatermarkEvent(last.Ptime+1, last.Ptime+types.Time(1000*types.Second))
	for _, parts := range []int{1, 4} {
		parts := parts
		t.Run(fmt.Sprintf("parts=%d", parts), func(t *testing.T) {
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

			rng := rand.New(rand.NewSource(int64(7 * parts)))
			splits := []int{1, len(g.Bids) / 3, len(g.Bids) / 2, len(g.Bids) - 1}
			opts := core.SubscribeOptions{Buffer: len(g.Bids) + 16}
			exclOpts := opts
			exclOpts.Exclusive = true
			for _, split := range splits {
				e := partsEngine(t, parts)
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
				restored := restartEngine(t, e, shardOpts(parts)...)
				if got := restored.LiveSessions(); got != 1 {
					t.Fatalf("split=%d: restored engine has %d live sessions, want 1", split, got)
				}
				// The early subscriber's prefix deltas, for the continuation
				// check below. Cancel releases the abandoned engine.
				early.Cancel()
				prefixRows := collectStream(early, nil)

				// A late attacher lands on the restored resident pipeline
				// (no new session), its dedicated twin compiles its own
				// and replays the restored catalog history.
				late, err := restored.SubscribeStream(liveBidQuery, opts)
				if err != nil {
					t.Fatalf("split=%d: late attach to restored session: %v", split, err)
				}
				if got := restored.LiveSessions(); got != 1 {
					t.Fatalf("split=%d: late attach created a session (%d live), want to share the restored one", split, got)
				}
				twin, err := restored.SubscribeStream(liveBidQuery, exclOpts)
				if err != nil {
					t.Fatal(err)
				}

				// Finish the stream on the restored engine.
				for i := split; i < len(g.Bids); {
					end := i + 1 + rng.Intn(8)
					if end > len(g.Bids) {
						end = len(g.Bids)
					}
					if err := restored.AppendLog("Bid", g.Bids[i:end]); err != nil {
						t.Fatal(err)
					}
					i = end
				}
				if err := restored.AppendLog("Bid", tvr.Changelog{finalWM}); err != nil {
					t.Fatal(err)
				}

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
	sub, err := e.SubscribeTable(sql, core.SubscribeOptions{Buffer: len(g.Bids) + 16})
	if err != nil {
		t.Fatal(err)
	}
	split := len(g.Bids) / 2
	if err := e.AppendLog("Bid", g.Bids[:split]); err != nil {
		t.Fatal(err)
	}
	restored := restartEngine(t, e)
	sub.Cancel()

	late, err := restored.SubscribeTable(sql, core.SubscribeOptions{Buffer: len(g.Bids) + 16})
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

// TestCheckpointSkipsExclusiveSessions: exclusive sessions cannot be
// re-attached after a restart (their retained output is dropped and their
// only subscriber died with the process), so they are not checkpointed.
func TestCheckpointSkipsExclusiveSessions(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	shared, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: len(g.Bids) + 16})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Cancel()
	excl, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: len(g.Bids) + 16, Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	defer excl.Cancel()
	if err := e.AppendLog("Bid", g.Bids[:200]); err != nil {
		t.Fatal(err)
	}
	restored := restartEngine(t, e)
	if got := restored.LiveSessions(); got != 1 {
		t.Fatalf("restored %d sessions, want only the shared one", got)
	}
}

// TestCheckpointCompletesAfterParkedDeliveryReleased: a delivery parked on
// a full Block-policy cursor holds the live ordering lock, so a concurrent
// CheckpointAll must wait — and canceling the stalled subscription must
// release the park and let the checkpoint complete. cmd/serve's graceful
// shutdown relies on exactly this to unwedge its final checkpoint.
func TestCheckpointCompletesAfterParkedDeliveryReleased(t *testing.T) {
	e := newBidEngine(t)
	sub, err := e.SubscribeStream(`SELECT auction, price FROM Bid`, core.SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The subscriber never drains: the second delta fills the channel and
	// the third delivery parks the publisher (holding the ordering lock).
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		for i := 0; i < 4; i++ {
			row := types.Row{types.NewInt(int64(i)), types.NewInt(1000), types.NewTimestamp(types.Time(i * 1000))}
			if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(types.Time(i*1000), row)}); err != nil {
				return // session torn down by the cancel below
			}
		}
	}()
	ckptDone := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		ckptDone <- e.CheckpointAll(&buf)
	}()
	// Whether or not the checkpoint slipped in before the park, canceling
	// the stalled subscriber must let both the publisher and the
	// checkpoint finish promptly.
	time.Sleep(50 * time.Millisecond)
	sub.Cancel()
	select {
	case <-ckptDone:
	case <-time.After(5 * time.Second):
		t.Fatal("CheckpointAll still blocked after the stalled subscription was canceled")
	}
	select {
	case <-ingestDone:
	case <-time.After(5 * time.Second):
		t.Fatal("parked publisher still blocked after cancel")
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
// cap bounds the shared session's retention; once exceeded, late attaches
// fail with live.ErrRetainedOverflow while existing subscribers continue,
// and an Exclusive subscription remains available (history replay).
func TestRetainedOverflowDegradesLateAttach(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	first, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{
		Buffer: len(g.Bids) + 16, MaxRetainedRows: 8,
	})
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
	// Late attach degrades to the documented error instead of unbounded
	// retention.
	_, err = e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 16})
	if !errors.Is(err, live.ErrRetainedOverflow) {
		t.Fatalf("late attach after overflow: err = %v, want ErrRetainedOverflow", err)
	}
	// The session (and its existing subscriber) survives.
	if e.LiveSessions() != 1 || first.Err() != nil {
		t.Fatalf("overflow damaged the resident session: sessions=%d err=%v", e.LiveSessions(), first.Err())
	}
	// Exclusive path still works: it replays recorded history instead.
	excl, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: len(g.Bids) + 16, Exclusive: true})
	if err != nil {
		t.Fatalf("exclusive subscribe after overflow: %v", err)
	}
	finalExcl, err := excl.Close()
	if err != nil {
		t.Fatal(err)
	}
	exclRows := collectStream(excl, finalExcl)
	firstFinal, err := first.Close()
	if err != nil {
		t.Fatal(err)
	}
	firstRows := collectStream(first, firstFinal)
	if got, want := tvr.FormatStreamTable(excl.Schema(), exclRows), tvr.FormatStreamTable(first.Schema(), firstRows); got != want {
		t.Fatalf("exclusive replay differs from the capped session's deltas:\ngot:\n%s\nwant:\n%s", truncate(got), truncate(want))
	}
}

// TestOverflowedSessionCheckpointRestore: an overflowed session still
// checkpoints and restores (its pipeline state is intact); the restored copy
// keeps refusing late attaches.
func TestOverflowedSessionCheckpointRestore(t *testing.T) {
	g := liveData(t)
	e := newBidEngine(t)
	if _, err := e.SubscribeStream(liveBidQuery, core.SubscribeOptions{
		Buffer: len(g.Bids) + 16, MaxRetainedRows: 4,
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
	_, err := restored.SubscribeStream(liveBidQuery, core.SubscribeOptions{Buffer: 16})
	if !errors.Is(err, live.ErrRetainedOverflow) {
		t.Fatalf("restored overflowed session should refuse late attach, got %v", err)
	}
}
