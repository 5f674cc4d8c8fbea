package main

// The commit routes' truthful outcome under -request-timeout: a commit
// compares its request's deadline with the clock once, under the lock that
// orders it, so a request that waited past its deadline is refused with
// nothing committed, and one that passed the check is answered with its
// commit. It is never a 503 for a batch that went on to commit.

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// syncGateFS holds the first fsync of a file it opened after it is armed
// until release closes. The commit making that fsync (a log append under
// wal.SyncAlways) keeps the ordering lock the whole time, so every later
// commit queues behind it.
type syncGateFS struct {
	vfs.FS
	armed   atomic.Bool
	entered chan struct{} // closed when the held fsync starts
	release chan struct{}
}

func newSyncGateFS() *syncGateFS {
	return &syncGateFS{FS: vfs.Default, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *syncGateFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncGateFile{File: f, gate: g}, nil
}

type syncGateFile struct {
	vfs.File
	gate *syncGateFS
}

func (f *syncGateFile) Sync() error {
	if f.gate.armed.CompareAndSwap(true, false) {
		close(f.gate.entered)
		<-f.gate.release
	}
	return f.File.Sync()
}

// postBids runs one ingest of a Bid batch (one event per price, all at
// ptime) through srv on a goroutine of its own.
func postBids(srv *Server, ptime int64, prices ...int64) <-chan *httptest.ResponseRecorder {
	var b bytes.Buffer
	b.WriteString(`{"events":[`)
	for i, p := range prices {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"kind":"insert","ptime":%d,"row":[1,%d,%d]}`, ptime, p, ptime)
	}
	b.WriteString(`]}`)
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/relations/Bid/events", &b))
		done <- rec
	}()
	return done
}

// countPrice is COUNT(*) of the Bid rows at price.
func countPrice(t *testing.T, e *core.Engine, price int64) int64 {
	t.Helper()
	res, err := e.QueryTable(fmt.Sprintf(`SELECT COUNT(*) AS n FROM Bid WHERE price = %d`, price), types.MaxTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		return 0
	}
	return res.Rows[0][0].Int()
}

// deltaPriceCounts counts the subscription's delta rows by price: it drains
// until a row at price first has arrived (deltas come in commit order, so
// any later commit's follow it), then until none arrives for quiet.
func deltaPriceCounts(sub *live.Subscription, first int64, quiet time.Duration) map[int64]int64 {
	counts := map[int64]int64{}
	wait := 10 * time.Second
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				return counts
			}
			for _, r := range d.Stream {
				counts[r.Row[1].Int()]++
			}
			if counts[first] > 0 {
				wait = quiet
			}
		case <-time.After(wait):
			return counts
		}
	}
}

func TestServeIngestPastDeadlineCommitsNothing(t *testing.T) {
	const timeout = 50 * time.Millisecond
	dir := t.TempDir()
	gate := newSyncGateFS()
	engine, _, err := core.Open(dir, wal.Options{Mode: wal.SyncAlways}, core.WithUnboundedGroupBy(), core.WithFS(gate))
	if err != nil {
		t.Fatal(err)
	}
	registerBidDirect(t, engine)
	sub, err := engine.SubscribeStream(`SELECT auction, price FROM Bid`, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Two front-ends over one engine: the first ingest has no deadline, so
	// only the held fsync decides when it finishes; the second has a short
	// one and must wait behind the first, past it.
	holder, bounded := NewServer(engine), NewServer(engine)
	bounded.SetRequestTimeout(timeout)

	gate.armed.Store(true)
	first := postBids(holder, 1000, 100)
	<-gate.entered // the first ingest holds the ordering lock inside its fsync
	second := postBids(bounded, 2000, 200, 200)
	time.Sleep(3 * timeout)
	close(gate.release)
	outcomes := map[int64]*httptest.ResponseRecorder{100: <-first, 200: <-second}
	// A commit a 503 abandoned would land right after the release; give it
	// the time to, so the checks below see it.
	time.Sleep(100 * time.Millisecond)

	deltas := deltaPriceCounts(sub, 100, 100*time.Millisecond)
	inCatalog := map[int64]int64{100: countPrice(t, engine, 100), 200: countPrice(t, engine, 200)}
	sub.Cancel()
	engine.Close()
	// Restart: the catalog now comes from the log's replay.
	reopened, rec, err := core.Open(dir, wal.Options{Mode: wal.SyncAlways}, core.WithUnboundedGroupBy())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if rec.Replay.Frames == 0 {
		t.Fatal("restart replayed no log records")
	}

	for price, want := range map[int64]int64{100: 1, 200: 2} {
		code := outcomes[price].Code
		var committed int64
		switch code {
		case http.StatusOK:
			committed = want
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("batch at price %d: status %d (%s), want 200 or 503", price, code, outcomes[price].Body)
		}
		replayed := countPrice(t, reopened, price)
		if inCatalog[price] != committed || replayed != committed || deltas[price] != committed {
			t.Errorf("batch at price %d answered %d, but %d of its %d rows are in the catalog, %d after replay, %d in the subscriber's deltas; want %d in each",
				price, code, inCatalog[price], want, replayed, deltas[price], committed)
		}
	}
	t.Logf("held ingest: %d; ingest that waited behind it past its deadline: %d", outcomes[100].Code, outcomes[200].Code)
}
