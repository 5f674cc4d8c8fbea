package core_test

// Engine-level WAL recovery tests: with a write-ahead log attached, a crash
// at ANY point after a commit is acknowledged — not just at a snapshot
// boundary — must recover to the exact last-committed state. The recovery
// path is the real one: restore the last snapshot file, re-publish the WAL
// tail through the normal commit path, and require the restored engine's
// standing-query output byte-identical to an uninterrupted run (the same
// property TestCheckpointRestoreLive pins for snapshot-only recovery).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// walBidEngine opens an engine on dataDir through core.Open and then
// registers the Bid stream THROUGH the log (the first record), so recovery
// rebuilds the catalog entry from the log rather than assuming it.
func walBidEngine(t *testing.T, dataDir string, opts ...core.Option) *core.Engine {
	t.Helper()
	e, _, err := core.Open(dataDir, wal.Options{}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if err := e.RegisterStream("Bid", liveBidSchema(t)); err != nil {
		t.Fatal(err)
	}
	return e
}

// recoverEngine reopens a crashed engine's data directory through
// core.Open: restore the snapshot, replay the WAL tail.
func recoverEngine(t *testing.T, dataDir string, opts ...core.Option) (*core.Engine, wal.ReplayInfo) {
	t.Helper()
	r, rec, err := core.Open(dataDir, wal.Options{}, opts...)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	t.Cleanup(r.Close)
	return r, rec.Replay
}

// TestWALRecoveryLive: ingest a full stream with a snapshot taken at a
// random split point, crash without any further snapshot, recover from
// snapshot + WAL tail, and require (a) everything ingested after the
// snapshot to survive — nothing is rewound — and (b) a late attacher to the
// recovered resident pipeline to be byte-identical to a dedicated twin on a
// second engine fed the recovered changelog and to the uninterrupted
// replay, on the serial fan-out and on a sharded one.
// Odd split indexes truncate the log after the snapshot; on even ones the
// truncation fails (a crash between snapshot and truncation leaves the same
// directory), so recovery must skip the already-covered records by
// sequence number.
func TestWALRecoveryLive(t *testing.T) {
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

			rng := rand.New(rand.NewSource(int64(11 * parts)))
			splits := []int{1, len(g.Bids) / 3, len(g.Bids) / 2, len(g.Bids) - 1}
			opts := core.SubscribeOptions{}
			for si, split := range splits {
				dataDir := t.TempDir()
				ffs := vfs.NewFault(vfs.Default)
				if si%2 == 0 {
					ffs.AddFault(vfs.Fault{Op: vfs.OpRemove, Path: "wal-"})
				}
				e := walBidEngine(t, dataDir, append(shardOpts(parts), core.WithFS(ffs))...)

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

				// Snapshot mid-stream; on odd iterations the log is also
				// compacted, on even ones its truncation fails.
				_, seq, err := e.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if seq != e.WALSeq() {
					t.Fatalf("split=%d: snapshot reports seq %d, engine at %d", split, seq, e.WALSeq())
				}
				if truncErr := e.CheckpointStatus().Err; (truncErr == nil) != (si%2 == 1) {
					t.Fatalf("split=%d: truncation error %v", split, truncErr)
				}

				// Everything after this point exists ONLY in the WAL tail.
				ingest(split, len(g.Bids))
				if err := e.Heartbeat(last.Ptime); err != nil {
					t.Fatal(err)
				}
				if err := e.AppendLog("Bid", tvr.Changelog{finalWM}); err != nil {
					t.Fatal(err)
				}
				crashSeq := e.WALSeq()
				early.Cancel() // the crashed process's subscriber is gone

				// Crash: no Close, no final snapshot. Recover from the
				// snapshot plus the log tail.
				r, info := recoverEngine(t, dataDir, shardOpts(parts)...)
				if info.LastSeq != crashSeq || r.WALSeq() != crashSeq {
					t.Fatalf("split=%d: recovered through seq %d (log says %d), crashed at %d",
						split, r.WALSeq(), info.LastSeq, crashSeq)
				}
				// Nothing ingested after the snapshot was rewound.
				log, err := r.Log("Bid")
				if err != nil {
					t.Fatal(err)
				}
				if len(log) != len(g.Bids)+1 {
					t.Fatalf("split=%d: recovered changelog has %d events, want %d — post-snapshot commits were rewound",
						split, len(log), len(g.Bids)+1)
				}

				// The snapshot carried the resident pipeline; the WAL tail
				// caught it up through the normal commit path. A late
				// attacher must land on it and equal both a dedicated twin
				// and the uninterrupted replay.
				if got := r.LiveSessions(); got != 1 {
					t.Fatalf("split=%d: recovered engine has %d live sessions, want 1", split, got)
				}
				late, err := r.SubscribeStream(liveBidQuery, opts)
				if err != nil {
					t.Fatalf("split=%d: late attach to recovered session: %v", split, err)
				}
				if got := r.LiveSessions(); got != 1 {
					t.Fatalf("split=%d: late attach created a session (%d live), want to share the recovered one", split, got)
				}
				twin, err := twinEngine(t, parts, log).SubscribeStream(liveBidQuery, opts)
				if err != nil {
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
					t.Fatalf("split=%d: late attacher to recovered session differs from dedicated twin:\nlate:\n%s\ntwin:\n%s",
						split, truncate(lateStr), truncate(twinStr))
				}
				if lateStr != wantStr {
					t.Fatalf("split=%d: recovered output differs from uninterrupted replay:\ngot:\n%s\nwant:\n%s",
						split, truncate(lateStr), truncate(wantStr))
				}
			}
		})
	}
}

// TestWALRecoveryWithoutSnapshot: a data directory whose snapshot is gone
// (Open writes one on first boot, so only loss removes it) still loses
// nothing — the log alone carries the registration and every committed
// batch.
func TestWALRecoveryWithoutSnapshot(t *testing.T) {
	g := liveData(t)
	dir := t.TempDir()
	e := walBidEngine(t, dir)
	if err := e.AppendLog("Bid", g.Bids[:300]); err != nil {
		t.Fatal(err)
	}
	crashSeq := e.WALSeq()
	if err := os.Remove(e.CheckpointStatus().Path); err != nil {
		t.Fatal(err)
	}

	r, info := recoverEngine(t, dir)
	if info.LastSeq != crashSeq {
		t.Fatalf("replayed through %d, crashed at %d", info.LastSeq, crashSeq)
	}
	log, err := r.Log("Bid")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 300 {
		t.Fatalf("recovered %d events, want 300", len(log))
	}
	got, err := r.QueryStream(`SELECT auction, price FROM Bid WHERE price > 900`)
	if err != nil {
		t.Fatal(err)
	}
	wantEngine := newBidEngine(t)
	if err := wantEngine.AppendLog("Bid", g.Bids[:300]); err != nil {
		t.Fatal(err)
	}
	want, err := wantEngine.QueryStream(`SELECT auction, price FROM Bid WHERE price > 900`)
	if err != nil {
		t.Fatal(err)
	}
	if gs, ws := tvr.FormatStreamTable(got.Schema, got.Rows), tvr.FormatStreamTable(want.Schema, want.Rows); gs != ws {
		t.Fatalf("log-only recovery diverges:\ngot:\n%s\nwant:\n%s", truncate(gs), truncate(ws))
	}
}

// TestWALRecoveryFreshRelation: a relation registered AFTER the last
// snapshot (plus its data) is rebuilt from the log's register record.
func TestWALRecoveryFreshRelation(t *testing.T) {
	g := liveData(t)
	dataDir := t.TempDir()
	e := walBidEngine(t, dataDir)
	if err := e.AppendLog("Bid", g.Bids[:100]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot: a brand-new relation and rows into it.
	if err := e.RegisterTable("Extra", liveBidSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Extra", g.Bids[100:140]); err != nil {
		t.Fatal(err)
	}

	r, _ := recoverEngine(t, dataDir)
	log, err := r.Log("Extra")
	if err != nil {
		t.Fatalf("relation registered after the snapshot did not survive: %v", err)
	}
	if len(log) != 40 {
		t.Fatalf("recovered %d Extra events, want 40", len(log))
	}
	// And it is a table, not a stream: re-registering must collide.
	if err := r.RegisterTable("Extra", liveBidSchema(t)); err == nil {
		t.Fatal("recovered engine re-registered Extra")
	}
}

// TestWALReplayRefusedWhenAttached: replaying into an engine already
// logging would re-log every replayed record; the engine must refuse.
func TestWALReplayRefusedWhenAttached(t *testing.T) {
	dir := t.TempDir()
	e := walBidEngine(t, dir)
	if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(0, bidRow(1, 100, 0))}); err != nil {
		t.Fatal(err)
	}
	_, err := wal.Replay(filepath.Join(dir, "wal"), e.ReplayWALRecord)
	if err == nil {
		t.Fatal("replay into an attached engine succeeded")
	}
}

// TestRegisterRefusesUnservableSchema: a column without a name, two names
// that differ only in case, and EventTime on a column that is not TIMESTAMP
// are refused with an error naming the column, before anything is logged.
func TestRegisterRefusesUnservableSchema(t *testing.T) {
	e := walBidEngine(t, t.TempDir())
	seq := e.WALSeq()
	for _, c := range []struct {
		cols []types.Column
		want string
	}{
		{[]types.Column{{Name: "a", Kind: types.KindInt64}, {Name: "A", Kind: types.KindString}}, `"A"`},
		{[]types.Column{{Name: "a", Kind: types.KindInt64}, {Kind: types.KindInt64}}, "column 2"},
		{[]types.Column{{Name: "t", Kind: types.KindInt64, EventTime: true}, {Name: "v", Kind: types.KindInt64}}, `"t"`},
	} {
		sch := types.NewSchema(c.cols...)
		for _, register := range []func(string, *types.Schema) error{e.RegisterStream, e.RegisterTable} {
			if err := register("D", sch); !errors.Is(err, core.ErrInvalidSchema) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("register %s: %v, want ErrInvalidSchema naming %s", sch, err, c.want)
			}
		}
	}
	if got := e.WALSeq(); got != seq {
		t.Fatalf("refused registrations moved the WAL from %d to %d", seq, got)
	}
	if _, err := e.Resolve("D"); err == nil {
		t.Fatal("a refused relation is in the catalog")
	}
}

// liveBidSchema returns the Bid schema used by the live helpers.
func liveBidSchema(t *testing.T) *types.Schema {
	t.Helper()
	e := newBidEngine(t)
	rel, err := e.Resolve("Bid")
	if err != nil {
		t.Fatal(err)
	}
	return rel.Schema
}

// bidRow builds one full-schema Bid row (auction, bidder, price, dateTime).
func bidRow(auction, price int64, at types.Time) types.Row {
	return types.Row{types.NewInt(auction), types.NewInt(1), types.NewInt(price), types.NewTimestamp(at)}
}
