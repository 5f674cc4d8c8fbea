package core_test

// Restore compatibility with engine snapshots written in earlier layouts.
// serial_sessions.golden was taken before the key-partitioned executor was
// removed, legacy_mixed_modes.golden while every session had a mode and was
// keyed by its SQL text; both restore into today's one-session-per-relation
// layout, and sessions.golden pins that layout's bytes. A restored session
// must be registered under the key a subscription computes today: otherwise
// a reconnecting subscriber would compile a second pipeline while the
// restored one sat resident with no cursors, forever.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// The fixture's two shared standing queries: a per-auction windowed MAX as a
// stream with watermark-driven EMIT, and the same aggregate as a table.
const (
	fixtureStreamSQL = `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend
EMIT STREAM AFTER WATERMARK`
	fixtureTableSQL = `
SELECT TB.auction auction, TB.wstart wstart, TB.wend wend, MAX(TB.price) maxPrice
FROM Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(dateTime),
            dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.auction, TB.wstart, TB.wend`
)

// keywordCase respells a query's keywords in lower case. Only keywords:
// lower-casing an output column alias would name a different relation.
var keywordCase = strings.NewReplacer("SELECT", "select", "FROM", "from", "GROUP BY", "group by",
	"TABLE", "table", "DESCRIPTOR", "descriptor", "INTERVAL", "interval", "SECONDS", "seconds",
	"EMIT STREAM AFTER WATERMARK", "emit stream after watermark")

func fixtureSec(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }

func fixtureBid(auction, bidder, price, sec int64) types.Row {
	return types.Row{types.NewInt(auction), types.NewInt(bidder), types.NewInt(price), types.NewTimestamp(fixtureSec(sec))}
}

// fixtureSessionsEngine is the engine serial_sessions.golden and
// sessions.golden were taken of: the Bid stream, a shared stream
// subscription and a shared table subscription of two queries, and a
// changelog with a retraction and a watermark that closes the first window.
func fixtureSessionsEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	opts := core.SubscribeOptions{}
	if _, err := e.SubscribeStream(fixtureStreamSQL, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubscribeTable(fixtureTableSQL, opts); err != nil {
		t.Fatal(err)
	}
	s := fixtureSec
	if err := e.AppendLog("Bid", tvr.Changelog{
		tvr.InsertEvent(s(1), fixtureBid(1, 10, 100, 1)),
		tvr.InsertEvent(s(2), fixtureBid(2, 11, 200, 2)),
		tvr.InsertEvent(s(3), fixtureBid(1, 12, 150, 4)),
		tvr.InsertEvent(s(4), fixtureBid(3, 13, 90, 12)),
		tvr.DeleteEvent(s(5), fixtureBid(2, 11, 200, 2)),
		tvr.InsertEvent(s(6), fixtureBid(2, 14, 250, 7)),
		tvr.WatermarkEvent(s(7), s(10)), // closes [0, 10)
		tvr.InsertEvent(s(8), fixtureBid(1, 15, 300, 14)),
		tvr.InsertEvent(s(9), fixtureBid(3, 16, 80, 15)),
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

// fixtureMoreBids continues the fixture's changelog after the restore.
func fixtureMoreBids() tvr.Changelog {
	s := fixtureSec
	return tvr.Changelog{
		tvr.InsertEvent(s(10), fixtureBid(1, 17, 50, 3)), // late: [0, 10) is closed
		tvr.InsertEvent(s(11), fixtureBid(3, 18, 120, 18)),
		tvr.DeleteEvent(s(12), fixtureBid(1, 15, 300, 14)),
		tvr.WatermarkEvent(s(13), s(30)),
	}
}

// readGolden decodes a hex-dumped engine snapshot from testdata.
func readGolden(t testing.TB, name string) []byte {
	t.Helper()
	dump, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(string(bytes.ReplaceAll(dump, []byte("\n"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// restoreGolden restores a testdata snapshot into a fresh engine and checks
// how many sessions it holds.
func restoreGolden(t *testing.T, name string, sessions int) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	if err := e.RestoreAll(bytes.NewReader(readGolden(t, name))); err != nil {
		t.Fatalf("restore %s: %v", name, err)
	}
	if n := e.LiveSessions(); n != sessions {
		t.Fatalf("%s restored %d sessions, want %d", name, n, sessions)
	}
	return e
}

// reader is one reconnecting subscriber of a restored engine.
type reader struct {
	sql   string
	table bool
}

func (r reader) subscribe(t *testing.T, e *core.Engine, opts core.SubscribeOptions) *live.Subscription {
	t.Helper()
	subscribe := e.SubscribeStream
	if r.table {
		subscribe = e.SubscribeTable
	}
	sub, err := subscribe(r.sql, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// checkReconnects attaches every reader to the restored engine e and checks
// that none compiled a pipeline (LiveSessions unchanged), then continues the
// changelog and requires each reader's deltas — the snapshot hand-off and
// every later one — to equal those of a dedicated twin: the same reader,
// opened at the same instant on a second engine of its own that holds e's
// Bid changelog.
func checkReconnects(t *testing.T, e *core.Engine, readers []reader) {
	t.Helper()
	opts := core.SubscribeOptions{}
	sessions := e.LiveSessions()
	shared := make([]*live.Subscription, len(readers))
	for i, r := range readers {
		shared[i] = r.subscribe(t, e, opts)
	}
	if n := e.LiveSessions(); n != sessions {
		t.Fatalf("%d sessions after reconnecting, want %d: a reconnect compiled a pipeline instead of attaching to the restored one", n, sessions)
	}
	log, err := e.Log("Bid")
	if err != nil {
		t.Fatal(err)
	}
	engines := []*core.Engine{e}
	twins := make([]*live.Subscription, len(readers))
	for i, r := range readers {
		twin := newBidEngine(t)
		if err := twin.AppendLog("Bid", log); err != nil {
			t.Fatal(err)
		}
		engines = append(engines, twin)
		twins[i] = r.subscribe(t, twin, opts)
	}
	for _, e := range engines {
		if err := e.AppendLog("Bid", fixtureMoreBids()); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range readers {
		got, want := deltaLines(t, shared[i]), deltaLines(t, twins[i])
		if len(got) < 2 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("reader %d (table=%v) received\n%v\ndedicated twin\n%v", i, r.table, got, want)
		}
	}
}

// TestRestoreSerialSessionsFixture: serial_sessions.golden holds one stream
// and one table session of two different relations (the stream query emits
// after the watermark). It restores both — the table session, which kept no
// output changelog, rebuilt from the recorded history — and reconnecting
// readers, a stream reader of the table query included, attach to them and
// receive what a dedicated twin receives.
func TestRestoreSerialSessionsFixture(t *testing.T) {
	e := restoreGolden(t, "serial_sessions.golden", 2)
	checkReconnects(t, e, []reader{
		{sql: fixtureStreamSQL},
		{sql: fixtureTableSQL, table: true},
		{sql: fixtureTableSQL},
	})
}

// TestRestoreLegacyMixedModes: legacy_mixed_modes.golden was written while a
// stream and a table subscription of one SQL ran two pipelines (a whitespace
// variant shared the stream one). It restores to one session, which serves
// both modes and every spelling.
func TestRestoreLegacyMixedModes(t *testing.T) {
	e := restoreGolden(t, "legacy_mixed_modes.golden", 1)
	checkReconnects(t, e, []reader{
		{sql: fixtureTableSQL, table: true},
		{sql: fixtureTableSQL},
		{sql: strings.Join(strings.Fields(fixtureTableSQL), " ")},
		{sql: keywordCase.Replace(fixtureTableSQL), table: true},
	})
}

// TestSessionsGolden pins today's snapshot layout: the fixture engine
// checkpoints to exactly sessions.golden (UPDATE_GOLDEN=1 rewrites it), which
// restores and serves like the engine it was taken of.
func TestSessionsGolden(t *testing.T) {
	var now bytes.Buffer
	if err := fixtureSessionsEngine(t).CheckpointAll(&now); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sessions.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		h := hex.EncodeToString(now.Bytes())
		var dump strings.Builder
		for ; len(h) > 64; h = h[64:] {
			dump.WriteString(h[:64] + "\n")
		}
		dump.WriteString(h + "\n")
		if err := os.WriteFile(path, []byte(dump.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want := readGolden(t, "sessions.golden"); !bytes.Equal(now.Bytes(), want) {
		t.Fatalf("today's snapshot of the fixture engine is %d bytes and differs from the %d-byte sessions.golden (regenerate deliberately with UPDATE_GOLDEN=1)", now.Len(), len(want))
	}
	e := restoreGolden(t, "sessions.golden", 2)
	checkReconnects(t, e, []reader{
		{sql: fixtureStreamSQL},
		{sql: fixtureTableSQL, table: true},
		{sql: fixtureTableSQL},
	})
}

// FuzzRestoreAll: restore reads bytes from disk that may be torn, corrupt
// or written by another build, and checks the CRC trailer only after
// decoding everything before it. Every input must restore or return an
// error; none may panic. Seeded with the three snapshot goldens.
func FuzzRestoreAll(f *testing.F) {
	for _, name := range []string{"serial_sessions.golden", "legacy_mixed_modes.golden", "sessions.golden"} {
		f.Add(readGolden(f, name))
	}
	f.Fuzz(func(t *testing.T, snapshot []byte) {
		_ = core.NewEngine().RestoreAll(bytes.NewReader(snapshot))
	})
}

// deltaLines closes sub and renders every delta it received, the final one
// included, one line per delta.
func deltaLines(t *testing.T, sub *live.Subscription) []string {
	t.Helper()
	return formatDeltas(sub.Schema(), closeDeltas(t, sub))
}

// closeDeltas receives every delta owed to sub, then closes it, and returns
// them all, the final one included. Its engine must be quiescent.
func closeDeltas(t *testing.T, sub *live.Subscription) []live.Delta {
	t.Helper()
	ds := receiveOwed(t, sub, 0)
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final != nil {
		ds = append(ds, *final)
	}
	return ds
}

// formatDeltas renders deltas one line each.
func formatDeltas(sch *types.Schema, ds []live.Delta) []string {
	lines := make([]string, len(ds))
	for i, d := range ds {
		if d.Table != nil {
			lines[i] = fmt.Sprintf("wm=%s %+v", d.Watermark, *d.Table)
		} else {
			lines[i] = fmt.Sprintf("wm=%s %s", d.Watermark, tvr.FormatStreamTable(sch, d.Stream))
		}
	}
	return lines
}
