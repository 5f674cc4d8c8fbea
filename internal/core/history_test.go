package core_test

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/tvr"
	"repro/internal/types"
)

// TestReplayCopiesNoHistory: a one-shot query that replays a history
// spanning several chunks of the catalog's log walks the chunks where they
// are. Its allocations stay a small fraction of one copy of that history,
// stream and table reads alike, whatever horizon cuts it.
func TestReplayCopiesNoHistory(t *testing.T) {
	const n = 5*tvr.ChunkLen + 123
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	var batch tvr.Changelog
	for i := 0; i < n; i++ {
		p := types.Time(1000 + i)
		batch = append(batch, tvr.InsertEvent(p, types.Row{types.NewInt(int64(i % 100)), types.NewInt(7), types.NewInt(int64(i)), types.NewTimestamp(p)}))
		if len(batch) == 500 || i == n-1 {
			if err := e.AppendLog("Bid", batch); err != nil {
				t.Fatal(err)
			}
			batch = nil
		}
	}
	// No subscription holds the plan, so every read replays the history;
	// the filter passes nothing, so the output costs nothing.
	const sql = `SELECT auction, price FROM Bid WHERE price < 0`
	copyBytes := float64(n) * float64(unsafe.Sizeof(tvr.Event{}))
	for _, c := range []struct {
		name string
		read func() error
	}{
		{"stream", func() error { _, err := e.QueryStream(sql); return err }},
		{"table at a horizon", func() error { _, err := e.QueryTable(sql, types.Time(1000+n-2*tvr.ChunkLen)); return err }},
	} {
		if err := c.read(); err != nil { // compile caches and the like
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := c.read(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: replaying %d events allocated %.0f bytes, %.3f of one copy", c.name, n, got, got/copyBytes)
		if got > copyBytes/4 {
			t.Fatalf("%s: replaying %d events allocated %.0f bytes, past a quarter of one copy of the history (%.0f)", c.name, n, got, copyBytes)
		}
	}
}

// TestSmallReplayAllocs: a one-shot table read that replays 100 events and
// returns one row allocates for what it reads, not for a whole chunk of
// output log: its logs' first chunks start small and grow with use. It reads
// about 8 KiB; a first chunk of tvr.ChunkLen events alone is 192 KiB.
func TestSmallReplayAllocs(t *testing.T) {
	const n, ceiling = 100, 16 << 10
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	var batch tvr.Changelog
	for i := 0; i < n; i++ {
		p := types.Time(1000 + i)
		batch = append(batch, tvr.InsertEvent(p, types.Row{types.NewInt(int64(i)), types.NewInt(7), types.NewInt(int64(i)), types.NewTimestamp(p)}))
	}
	if err := e.AppendLog("Bid", batch); err != nil {
		t.Fatal(err)
	}
	const sql = `SELECT auction, price FROM Bid WHERE price = 42`
	read := func() {
		res, err := e.QueryTable(sql, types.MaxTime)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("the read returned %d rows, want 1", len(res.Rows))
		}
	}
	read() // compile caches and the like
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("replaying %d events for one row allocated %d bytes", n, got)
	if got > ceiling {
		t.Fatalf("replaying %d events for one row allocated %d bytes, want at most %d", n, got, ceiling)
	}
}
