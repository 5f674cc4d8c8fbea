package core_test

// Restore compatibility with an engine snapshot taken before the
// key-partitioned executor was removed. Sessions are stored in a snapshot
// under their plan key, and restore registers them under exactly that key:
// if the key a subscription computes today differed from the stored one, a
// reconnecting subscriber would compile a second pipeline while the restored
// one sat resident with no cursors, forever.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
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

func fixtureSec(n int64) types.Time { return types.Time(n) * types.Time(types.Second) }

func fixtureBid(auction, bidder, price, sec int64) types.Row {
	return types.Row{types.NewInt(auction), types.NewInt(bidder), types.NewInt(price), types.NewTimestamp(fixtureSec(sec))}
}

// fixtureSessionsEngine is the engine serial_sessions.golden was taken of:
// the Bid stream, one shared Stream session and one shared Table session,
// and a changelog with a retraction and a watermark that closes the first
// window.
func fixtureSessionsEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	opts := core.SubscribeOptions{Buffer: 64}
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

// TestRestoreSerialSessionsFixture: serial_sessions.golden was written before
// the key-partitioned executor was removed. Today's snapshot of the same
// engine is byte-identical to it; it restores both sessions; reconnecting
// subscribers attach to the restored pipelines instead of compiling new ones
// (LiveSessions stays 2); and what each receives — the snapshot hand-off and
// every later delta — is byte-identical to a dedicated twin's.
func TestRestoreSerialSessionsFixture(t *testing.T) {
	dump, err := os.ReadFile(filepath.Join("testdata", "serial_sessions.golden"))
	if err != nil {
		t.Fatal(err)
	}
	fixture, err := hex.DecodeString(string(bytes.ReplaceAll(dump, []byte("\n"), nil)))
	if err != nil {
		t.Fatal(err)
	}
	var now bytes.Buffer
	if err := fixtureSessionsEngine(t).CheckpointAll(&now); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now.Bytes(), fixture) {
		t.Fatalf("today's snapshot of the fixture engine is %d bytes and differs from the %d-byte fixture", now.Len(), len(fixture))
	}

	e := core.NewEngine()
	if err := e.RestoreAll(bytes.NewReader(fixture)); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if n := e.LiveSessions(); n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}
	opts := core.SubscribeOptions{Buffer: 64}
	stream, err := e.SubscribeStream(fixtureStreamSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	table, err := e.SubscribeTable(fixtureTableSQL, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.LiveSessions(); n != 2 {
		t.Fatalf("%d sessions after reconnecting, want 2: a reconnect compiled a pipeline instead of attaching to the restored one", n)
	}
	excl := opts
	excl.Exclusive = true
	streamTwin, err := e.SubscribeStream(fixtureStreamSQL, excl)
	if err != nil {
		t.Fatal(err)
	}
	tableTwin, err := e.SubscribeTable(fixtureTableSQL, excl)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AppendLog("Bid", fixtureMoreBids()); err != nil {
		t.Fatal(err)
	}

	got, want := deltaLines(t, stream), deltaLines(t, streamTwin)
	if len(got) < 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream reconnect received\n%v\ndedicated twin\n%v", got, want)
	}
	got, want = deltaLines(t, table), deltaLines(t, tableTwin)
	if len(got) < 2 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("table reconnect received\n%v\ndedicated twin\n%v", got, want)
	}
}

// deltaLines closes sub and renders every delta it received, the final one
// included, one line per delta.
func deltaLines(t *testing.T, sub *live.Subscription) []string {
	t.Helper()
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	render := func(d live.Delta) {
		if d.Table != nil {
			lines = append(lines, fmt.Sprintf("wm=%s %+v", d.Watermark, *d.Table))
			return
		}
		lines = append(lines, fmt.Sprintf("wm=%s %s", d.Watermark, tvr.FormatStreamTable(sub.Schema(), d.Stream)))
	}
	for d := range sub.Deltas() {
		render(d)
	}
	if final != nil {
		render(*final)
	}
	return lines
}
