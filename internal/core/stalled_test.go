package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/tvr"
	"repro/internal/types"
)

// recorder receives a subscription's deltas as they come.
type recorder struct {
	mu     sync.Mutex
	deltas []live.Delta
	done   chan struct{}
}

func record(sub *live.Subscription) *recorder {
	r := &recorder{done: make(chan struct{})}
	go func() {
		defer close(r.done)
		for d := range sub.Deltas() {
			r.mu.Lock()
			r.deltas = append(r.deltas, d)
			r.mu.Unlock()
		}
	}()
	return r
}

// waitFor returns the first n deltas once they have arrived.
func (r *recorder) waitFor(t *testing.T, n int64) []live.Delta {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		got := r.deltas
		r.mu.Unlock()
		if int64(len(got)) >= n {
			return got[:n]
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader received %d of %d deltas", len(got), n)
		}
	}
}

// within runs fn and fails the test if it does not return within a deadline.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s stalled behind a subscriber that stopped reading", what)
	}
}

// TestStalledReaderStallsNothing is the delivery contract: a subscriber that
// stops reading stalls no commit, no peer (a reader of the same session, a
// canceling sharer, a reader of another pipeline), no resident read and no
// checkpoint, and once it resumes it receives exactly the deltas its reading
// peer received — on the serial fan-out and on four shards. The stalled
// subscriber is owed far more deltas than any channel buffer held.
func TestStalledReaderStallsNothing(t *testing.T) {
	const q = `SELECT auction, price FROM Bid WHERE price > 10`
	const other = `SELECT auction, price FROM Bid WHERE price > 20`
	g := liveData(t)
	twin := newBidEngine(t)
	if err := twin.AppendLog("Bid", g.Bids); err != nil {
		t.Fatal(err)
	}
	wantTable := mustFormat(t, twin, q)
	wantStream, err := twin.QueryStream(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			opts := []core.Option{core.WithObs(reg)}
			if shards > 0 {
				opts = append(opts, core.WithShards(shards))
			}
			e := core.NewEngine(opts...)
			t.Cleanup(e.Close)
			if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
				t.Fatal(err)
			}
			subscribe := func(sql string) *live.Subscription {
				t.Helper()
				sub, err := e.SubscribeStream(sql, core.SubscribeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sub
			}
			stalled, peer, sharer, otherSub := subscribe(q), subscribe(q), subscribe(q), subscribe(other)
			t.Cleanup(func() {
				for _, sub := range []*live.Subscription{stalled, peer, sharer, otherSub} {
					sub.Cancel()
				}
			})
			peerRec, otherRec := record(peer), record(otherSub)

			within(t, "ingest", func() error {
				for _, ev := range g.Bids {
					if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
						return err
					}
				}
				return nil
			})
			within(t, "a sharer's cancel", func() error { sharer.Cancel(); return nil })
			within(t, "a resident read", func() error {
				res, err := e.QueryTable(q, types.MaxTime)
				if err != nil {
					return err
				}
				if res.Format() != wantTable {
					return fmt.Errorf("read differs from replay:\n%s\nwant:\n%s", truncate(res.Format()), truncate(wantTable))
				}
				return nil
			})
			if got := residentReads(reg); got != 1 {
				t.Fatalf("resident reads = %d, want the read served from the pipeline", got)
			}
			within(t, "a checkpoint", func() error { return e.CheckpointAll(&bytes.Buffer{}) })
			e.Quiesce()

			owed := stalled.Stats().DeltasOut
			if owed <= 64 {
				t.Fatalf("the stalled subscriber is owed %d deltas; the test needs more than a 64-delta buffer held", owed)
			}
			if st := stalled.Stats(); st.QueueDepth != int(owed) {
				t.Fatalf("stalled subscriber: %+v, want all %d deltas unread", st, owed)
			}
			want := peerRec.waitFor(t, peer.Stats().DeltasOut)
			otherRec.waitFor(t, otherSub.Stats().DeltasOut)
			var rows []tvr.StreamRow
			for _, d := range want {
				rows = append(rows, d.Stream...)
			}
			if got, want := tvr.FormatStreamTable(peer.Schema(), rows), tvr.FormatStreamTable(wantStream.Schema, wantStream.Rows); got != want {
				t.Fatalf("reading peer's rows differ from replay:\n%s\nwant:\n%s", truncate(got), truncate(want))
			}

			// Resume: the stalled subscriber catches up delta for delta.
			var got []live.Delta
			for i := int64(0); i < owed; i++ {
				got = append(got, waitDelta(t, stalled))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed subscriber's %d deltas differ from its peer's %d", len(got), len(want))
			}
		})
	}
}

// TestResidentReadWhileBlockParked (named for the parked delivery it
// replaced): a subscriber that stopped reading with deltas owed does not
// hold up a read of the same SQL. The read is answered from the resident
// pipeline, with every acknowledged commit in it, and equals replay.
func TestResidentReadWhileBlockParked(t *testing.T) {
	const q = `SELECT auction, price FROM Bid WHERE price > 10`
	g := liveData(t)
	var bids tvr.Changelog
	for _, ev := range g.Bids {
		if ev.Kind == tvr.Insert {
			bids = append(bids, ev)
		}
	}
	reg := obs.NewRegistry()
	e := core.NewEngine(core.WithObs(reg))
	t.Cleanup(e.Close)
	if err := e.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	twin := newBidEngine(t)
	sub, err := e.SubscribeStream(q, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Cancel)
	for _, c := range []tvr.Changelog{bids[:1], bids[1:2]} {
		if err := twin.AppendLog("Bid", c); err != nil {
			t.Fatal(err)
		}
		within(t, "a commit", func() error { return e.AppendLog("Bid", c) })
	}
	if st := sub.Stats(); st.QueueDepth != int(st.DeltasOut) || st.DeltasOut == 0 {
		t.Fatalf("subscriber stats = %+v, want its deltas owed and unread", st)
	}
	want := mustFormat(t, twin, q)
	within(t, "a resident read", func() error {
		res, err := e.QueryTable(q, types.MaxTime)
		if err != nil {
			return err
		}
		if res.Format() != want {
			return fmt.Errorf("read beside a stalled subscriber:\n%s\nwant:\n%s", res.Format(), want)
		}
		return nil
	})
	if got := residentReads(reg); got != 1 {
		t.Fatalf("resident counter = %d, want 1", got)
	}
}

// TestCheckpointCompletesAfterParkedDeliveryReleased (named for the parked
// delivery it replaced): CheckpointAll completes while a subscriber that
// stopped reading is owed deltas, without canceling it, and the subscriber
// still receives every delta afterwards.
func TestCheckpointCompletesAfterParkedDeliveryReleased(t *testing.T) {
	e := newBidEngine(t)
	sub, err := e.SubscribeStream(`SELECT auction, price FROM Bid`, core.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sub.Cancel)
	const n = 4
	within(t, "ingest", func() error {
		for i := 0; i < n; i++ {
			row := types.Row{types.NewInt(int64(i)), types.NewInt(7), types.NewInt(1000), types.NewTimestamp(types.Time(i * 1000))}
			if err := e.AppendLog("Bid", tvr.Changelog{tvr.InsertEvent(types.Time(i*1000), row)}); err != nil {
				return err
			}
		}
		return nil
	})
	within(t, "a checkpoint", func() error { return e.CheckpointAll(&bytes.Buffer{}) })
	if st := sub.Stats(); st.DeltasOut != n || st.QueueDepth != n {
		t.Fatalf("subscriber stats = %+v, want %d deltas owed, all unread", st, n)
	}
	for i := int64(0); i < n; i++ {
		d := waitDelta(t, sub)
		if len(d.Stream) != 1 || d.Stream[0].Row[0].Int() != i {
			t.Fatalf("delta %d = %+v", i, d.Stream)
		}
	}
}
