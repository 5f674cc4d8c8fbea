package live_test

// Unit tests for the session/cursor/subscription machinery: slow-consumer
// policies, cancellation under backpressure, graceful close, diff
// consolidation, shared-plan fan-out with per-subscriber cursors, and
// manager routing — driven by a scripted in-memory exec.Driver so the tests
// control exactly when output materializes.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// echoDriver is a minimal exec.Driver: every fed data event materializes as
// one output event (identity query), and Close emits one final marker row.
type echoDriver struct {
	started  bool
	closed   bool
	out      tvr.Changelog // undrained output
	wm       types.Time
	final    types.Row    // emitted at Close when non-nil
	advances []types.Time // recorded Advance calls
	feeds    func()       // called on every Feed when non-nil
}

func (d *echoDriver) Start() error {
	d.started = true
	return nil
}

func (d *echoDriver) Feed(batch []exec.Source) error {
	if d.feeds != nil {
		d.feeds()
	}
	for _, s := range batch {
		for _, ev := range s.Log {
			if ev.IsData() {
				d.out = append(d.out, ev)
			} else if ev.Kind == tvr.Watermark && ev.Wm > d.wm {
				d.wm = ev.Wm
			}
		}
	}
	return nil
}

func (d *echoDriver) Advance(pt types.Time) error {
	d.advances = append(d.advances, pt)
	return nil
}

func (d *echoDriver) Close() error {
	d.closed = true
	if d.final != nil {
		d.out = append(d.out, tvr.InsertEvent(types.MaxTime, d.final))
	}
	return nil
}

func (d *echoDriver) Drain() tvr.Changelog {
	out := d.out
	d.out = nil
	return out
}

func (d *echoDriver) OutputWatermark() types.Time   { return d.wm }
func (d *echoDriver) Stats() exec.Stats             { return exec.Stats{} }
func (d *echoDriver) DispatchStats() (int64, int64) { return 0, 0 }
func (d *echoDriver) FedInMergeOrder() bool         { return false }

func testSchema() *types.Schema {
	return types.NewSchema(types.Column{Name: "v", Kind: types.KindInt64})
}

func intRow(v int64) types.Row { return types.Row{types.NewInt(v)} }

func newTestSession(t *testing.T, d exec.Driver, mode live.Mode, buffer int, pol live.Policy) (*live.Session, *live.Subscription) {
	t.Helper()
	s, err := live.NewSession(d, live.Config{
		Name: "test", Schema: testSchema(), Sources: []string{"S"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Attach(live.CursorOpts{Buffer: buffer, Policy: pol, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return s, sub
}

// ingest feeds one event of relation "s" through sess.
func ingest(sess *live.Session, ev tvr.Event) error {
	return sess.IngestLog([]exec.Source{{Name: "s", Log: tvr.Changelog{ev}}})
}

// streamInts extracts the int payloads of a delta's stream rows.
func streamInts(d live.Delta) []int64 {
	var out []int64
	for _, r := range d.Stream {
		out = append(out, r.Row[0].Int())
	}
	return out
}

// TestDropWithError: when the bounded channel fills, the subscription is
// terminated with ErrSlowConsumer instead of stalling the producer; with no
// subscribers left, the session dies with it.
func TestDropWithError(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Stream, 2, live.DropWithError)
	var err error
	for i := 0; i < 10; i++ {
		err = ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i))))
		if err != nil {
			break
		}
	}
	if !errors.Is(err, live.ErrSlowConsumer) {
		t.Fatalf("ingest error = %v, want ErrSlowConsumer", err)
	}
	if !errors.Is(sub.Err(), live.ErrSlowConsumer) {
		t.Fatalf("Err() = %v, want ErrSlowConsumer", sub.Err())
	}
	// The channel must be closed so a ranging consumer terminates; the two
	// buffered deltas are still readable.
	n := 0
	for range sub.Deltas() {
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d buffered deltas, want 2", n)
	}
	// Further ingests keep failing with the recorded error.
	if err := ingest(sess, tvr.InsertEvent(100, intRow(100))); !errors.Is(err, live.ErrSlowConsumer) {
		t.Fatalf("post-drop ingest error = %v", err)
	}
}

// TestBlockBackpressure: a full channel stalls the producer until the
// consumer drains; nothing is lost.
func TestBlockBackpressure(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Stream, 1, live.Block)
	const n = 20
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var got []int64
	for len(got) < n {
		d := <-sub.Deltas()
		time.Sleep(time.Millisecond) // deliberately slow consumer
		got = append(got, streamInts(d)...)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer error: %v", err)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("delta %d = %d, want %d (order or loss under backpressure)", i, v, i)
		}
	}
}

// TestCancelUnblocksProducer: canceling a subscription releases a producer
// blocked on its full channel, and the last cursor's cancel tears the
// session down.
func TestCancelUnblocksProducer(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Stream, 1, live.Block)
	blocked := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 5; i++ {
			if err = ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				break
			}
		}
		blocked <- err
	}()
	// Give the producer time to fill the buffer and block, then cancel.
	time.Sleep(10 * time.Millisecond)
	sub.Cancel()
	select {
	case err := <-blocked:
		// The interrupted delivery parks in the leaving cursor's pending
		// slot (nil error); once the cancel lands the session is closed
		// and later ingests report ErrClosed. Either way the producer
		// must not stay blocked.
		if err != nil && !errors.Is(err, live.ErrClosed) {
			t.Fatalf("producer error = %v, want nil or ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after Cancel")
	}
	if !errors.Is(sub.Err(), live.ErrClosed) {
		t.Fatalf("Err() = %v, want ErrClosed", sub.Err())
	}
	// Channel must be closed.
	for range sub.Deltas() {
	}
	// The session died with its last cursor: no more input accepted.
	if err := ingest(sess, tvr.InsertEvent(100, intRow(100))); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("post-cancel ingest error = %v, want ErrClosed", err)
	}
}

// TestGracefulCloseDeliversFinalDelta: Close completes the pipeline and
// returns end-of-input emissions as the final delta without touching the
// (possibly full) channel.
func TestGracefulCloseDeliversFinalDelta(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, sub := newTestSession(t, d, live.Stream, 4, live.Block)
	if err := ingest(sess, tvr.InsertEvent(1, intRow(1))); err != nil {
		t.Fatal(err)
	}
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || len(final.Stream) != 1 || final.Stream[0].Row[0].Int() != 999 {
		t.Fatalf("final delta = %+v, want the close marker row", final)
	}
	if !d.closed {
		t.Fatal("driver was not closed")
	}
	if sub.Err() != nil {
		t.Fatalf("Err after graceful close = %v", sub.Err())
	}
	st := sub.Stats()
	if st.EventsIn != 1 || st.DeltasOut != 2 || st.RowsOut != 2 {
		t.Fatalf("stats = %+v, want EventsIn=1 DeltasOut=2 RowsOut=2", st)
	}
	// Second close reports the terminal state instead of re-closing.
	if _, err := sub.Close(); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestCloseKeepsInterruptedDelta: a delivery blocked on a full channel when
// the consumer calls Close must not be lost — it folds into the final delta.
func TestCloseKeepsInterruptedDelta(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, sub := newTestSession(t, d, live.Stream, 1, live.Block)
	// Fill the buffer (delta 0 delivered), then block a producer on delta 1.
	if err := ingest(sess, tvr.InsertEvent(1, intRow(1))); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- ingest(sess, tvr.InsertEvent(2, intRow(2)))
	}()
	time.Sleep(10 * time.Millisecond) // let the producer block
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The interrupted delivery succeeded from the producer's point of
	// view: the delta is parked for the closing cursor, not lost.
	if perr := <-blocked; perr != nil {
		t.Fatalf("producer error = %v, want nil (delta parked as pending)", perr)
	}
	// The final delta must contain the interrupted row 2 AND the close
	// marker 999 — nothing lost, order preserved.
	got := streamInts(*final)
	if len(got) != 2 || got[0] != 2 || got[1] != 999 {
		t.Fatalf("final delta rows = %v, want [2 999]", got)
	}
	// The buffered delta 0 is still readable.
	d0 := <-sub.Deltas()
	if len(d0.Stream) != 1 || d0.Stream[0].Row[0].Int() != 1 {
		t.Fatalf("buffered delta = %+v, want row 1", d0)
	}
}

// TestTableDiffConsolidation: insert+delete of the same row inside one
// delivery cancels out of the diff.
func TestTableDiffConsolidation(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Table, 4, live.Block)
	err := sess.IngestLog([]exec.Source{{Name: "s", Log: tvr.Changelog{
		tvr.InsertEvent(1, intRow(1)),
		tvr.InsertEvent(2, intRow(2)),
		tvr.DeleteEvent(3, intRow(1)), // cancels the first insert
		tvr.InsertEvent(4, intRow(2)), // multiplicity 2
	}}})
	if err != nil {
		t.Fatal(err)
	}
	d := <-sub.Deltas()
	if d.Table == nil {
		t.Fatal("nil table diff")
	}
	if len(d.Table.Deleted) != 0 {
		t.Fatalf("deleted = %v, want empty (consolidated)", d.Table.Deleted)
	}
	if len(d.Table.Inserted) != 2 || d.Table.Inserted[0][0].Int() != 2 || d.Table.Inserted[1][0].Int() != 2 {
		t.Fatalf("inserted = %v, want row(2) twice", d.Table.Inserted)
	}
	if d.Table.Ptime != 4 {
		t.Fatalf("diff ptime = %s, want 0:00:00.004", d.Table.Ptime)
	}
	sub.Cancel()
}

// TestSharedFanout: every attached cursor receives every delta, with its own
// counters, and the pipeline id/subscriber count are visible in Stats.
func TestSharedFanout(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	sess, err := live.NewSession(&echoDriver{}, live.Config{
		Name: "fanout", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]*live.Subscription, 3)
	for i := range subs {
		if subs[i], err = m.Subscribe("fanout", live.CursorOpts{Buffer: 8}, func() (*live.Session, error) { return sess, nil }, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 1 || m.Subscribers() != 3 {
		t.Fatalf("Len=%d Subscribers=%d, want 1/3", m.Len(), m.Subscribers())
	}
	for i := 0; i < 3; i++ {
		if err := m.PublishSpan(func() error { return nil }, "s",
			tvr.Changelog{tvr.InsertEvent(types.Time(i), intRow(int64(i)))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, sub := range subs {
		st := sub.Stats()
		if st.DeltasOut != 3 || st.RowsOut != 3 || st.Subscribers != 3 {
			t.Fatalf("sub %d stats = %+v, want 3 deltas / 3 rows / 3 subscribers", i, st)
		}
		if st.PipelineID != subs[0].Stats().PipelineID {
			t.Fatalf("sub %d pipeline id %d differs from %d", i, st.PipelineID, subs[0].Stats().PipelineID)
		}
		for j := 0; j < 3; j++ {
			d := <-sub.Deltas()
			if got := streamInts(d); len(got) != 1 || got[0] != int64(j) {
				t.Fatalf("sub %d delta %d = %v", i, j, got)
			}
		}
	}
	// EventsIn is shared pipeline state: one count, not per cursor.
	if st := subs[0].Stats(); st.EventsIn != 3 {
		t.Fatalf("EventsIn = %d, want 3", st.EventsIn)
	}
	for _, sub := range subs {
		sub.Cancel()
	}
	if m.Len() != 0 {
		t.Fatalf("Len after cancels = %d, want 0", m.Len())
	}
}

// TestRefcountTeardown: the shared pipeline survives departures until the
// last cursor leaves, and only then is the driver closed and the session
// unregistered.
func TestRefcountTeardown(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	d := &echoDriver{}
	sess, err := live.NewSession(d, live.Config{
		Name: "rc", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Subscribe("rc", live.CursorOpts{Buffer: 4}, func() (*live.Session, error) { return sess, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sess.Attach(live.CursorOpts{Buffer: 4})
	a.Cancel()
	if d.closed {
		t.Fatal("driver closed while a subscriber remains")
	}
	if m.Len() != 1 || m.Subscribers() != 1 {
		t.Fatalf("Len=%d Subscribers=%d after first cancel, want 1/1", m.Len(), m.Subscribers())
	}
	// The survivor still receives deltas.
	if err := m.PublishSpan(func() error { return nil }, "s",
		tvr.Changelog{tvr.InsertEvent(1, intRow(7))}, nil); err != nil {
		t.Fatal(err)
	}
	if got := streamInts(<-b.Deltas()); len(got) != 1 || got[0] != 7 {
		t.Fatalf("survivor delta = %v, want [7]", got)
	}
	b.Cancel()
	if !d.closed {
		t.Fatal("driver not closed after last cancel")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after last cancel, want 0", m.Len())
	}
}

// TestNonLastCloseLeavesPipeline: a graceful Close with peers attached only
// detaches the cursor; the standing query keeps running for the others, and
// the last Close completes it.
func TestNonLastCloseLeavesPipeline(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, a := newTestSession(t, d, live.Stream, 4, live.Block)
	b, err := sess.Attach(live.CursorOpts{Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := ingest(sess, tvr.InsertEvent(1, intRow(1))); err != nil {
		t.Fatal(err)
	}
	final, err := a.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final != nil {
		t.Fatalf("non-last Close returned a final delta: %+v", final)
	}
	if a.Err() != nil {
		t.Fatalf("Err after non-last Close = %v", a.Err())
	}
	if d.closed {
		t.Fatal("driver closed while a subscriber remains")
	}
	// The pipeline keeps serving b.
	if err := ingest(sess, tvr.InsertEvent(2, intRow(2))); err != nil {
		t.Fatal(err)
	}
	finalB, err := b.Close()
	if err != nil {
		t.Fatal(err)
	}
	if finalB == nil || len(finalB.Stream) != 1 || finalB.Stream[0].Row[0].Int() != 999 {
		t.Fatalf("last Close final delta = %+v, want the close marker", finalB)
	}
	if !d.closed {
		t.Fatal("driver not closed after last Close")
	}
	var got []int64
	for d := range b.Deltas() {
		got = append(got, streamInts(d)...)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("b's deltas = %v, want [1 2]", got)
	}
}

// TestLateAttachSnapshot: a cursor attaching after the pipeline has produced
// output receives the snapshot hand-off first — the full stream rendering
// with the original version numbers (Stream mode) or one consolidated diff
// reconstructing the snapshot (Table mode) — then lives on the shared feed.
func TestLateAttachSnapshot(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		sess, early := newTestSession(t, &echoDriver{}, live.Stream, 8, live.Block)
		for i := 0; i < 3; i++ {
			if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		late, err := sess.Attach(live.CursorOpts{Buffer: 8})
		if err != nil {
			t.Fatal(err)
		}
		snap := <-late.Deltas()
		if got := streamInts(snap); len(got) != 3 || got[0] != 0 || got[2] != 2 {
			t.Fatalf("snapshot rows = %v, want [0 1 2]", got)
		}
		// Version numbers continue across the hand-off: the next delta's
		// row versions at the late cursor equal the early cursor's.
		if err := ingest(sess, tvr.InsertEvent(10, intRow(10))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			<-early.Deltas() // skip the three pre-attach deltas
		}
		de, dl := <-early.Deltas(), <-late.Deltas()
		if len(de.Stream) != 1 || len(dl.Stream) != 1 || de.Stream[0].Ver != dl.Stream[0].Ver {
			t.Fatalf("post-attach versions diverge: early %+v late %+v", de.Stream, dl.Stream)
		}
		early.Cancel()
		late.Cancel()
	})
	t.Run("table", func(t *testing.T) {
		sess, early := newTestSession(t, &echoDriver{}, live.Table, 8, live.Block)
		err := sess.IngestLog([]exec.Source{{Name: "s", Log: tvr.Changelog{
			tvr.InsertEvent(1, intRow(1)),
			tvr.InsertEvent(2, intRow(2)),
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ingest(sess, tvr.DeleteEvent(3, intRow(1))); err != nil {
			t.Fatal(err)
		}
		late, err := sess.Attach(live.CursorOpts{Buffer: 8, Mode: live.Table})
		if err != nil {
			t.Fatal(err)
		}
		snap := <-late.Deltas()
		if snap.Table == nil {
			t.Fatal("nil snapshot diff")
		}
		// Across the whole history insert(1) and delete(1) net out: the
		// snapshot hand-off is the consolidated current state, row(2).
		if len(snap.Table.Inserted) != 1 || snap.Table.Inserted[0][0].Int() != 2 || len(snap.Table.Deleted) != 0 {
			t.Fatalf("snapshot diff = %+v, want insert row(2) only", snap.Table)
		}
		if snap.Table.Ptime != 3 {
			t.Fatalf("snapshot ptime = %s, want 0:00:00.003", snap.Table.Ptime)
		}
		early.Cancel()
		late.Cancel()
	})
}

// TestSlowBlockPeerDoesNotStallOthers: with two Block cursors on one
// session, a delta is handed to every cursor with buffer space before the
// producer waits on the full one — the fast subscriber keeps receiving while
// its slow peer exerts backpressure.
func TestSlowBlockPeerDoesNotStallOthers(t *testing.T) {
	sess, slow := newTestSession(t, &echoDriver{}, live.Stream, 1, live.Block)
	fast, err := sess.Attach(live.CursorOpts{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Delta 0 fills slow's buffer; delta 1 blocks the producer on slow.
	if err := ingest(sess, tvr.InsertEvent(0, intRow(0))); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocked <- ingest(sess, tvr.InsertEvent(1, intRow(1)))
	}()
	// The fast cursor receives delta 1 even though the producer is still
	// blocked on the slow peer.
	for i := 0; i < 2; i++ {
		select {
		case d := <-fast.Deltas():
			if got := streamInts(d); len(got) != 1 || got[0] != int64(i) {
				t.Fatalf("fast delta %d = %v", i, got)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("fast subscriber stalled behind slow peer (delta %d)", i)
		}
	}
	select {
	case err := <-blocked:
		t.Fatalf("producer returned (%v) before the slow cursor drained", err)
	default:
	}
	// Draining the slow cursor releases the producer.
	<-slow.Deltas()
	if err := <-blocked; err != nil {
		t.Fatalf("producer error = %v", err)
	}
	if got := streamInts(<-slow.Deltas()); len(got) != 1 || got[0] != 1 {
		t.Fatalf("slow delta 1 = %v", got)
	}
	slow.Cancel()
	fast.Cancel()
}

// TestCancelNotBlockedBehindSlowPeer: canceling (or closing) a healthy
// cursor must complete promptly even while the producer is parked on a
// different, slow Block-policy cursor — the park holds no cursor-state lock.
func TestCancelNotBlockedBehindSlowPeer(t *testing.T) {
	sess, slow := newTestSession(t, &echoDriver{}, live.Stream, 1, live.Block)
	healthy, err := sess.Attach(live.CursorOpts{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := sess.Attach(live.CursorOpts{Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Delta 0 fills slow's buffer; delta 1 parks the producer on slow.
	if err := ingest(sess, tvr.InsertEvent(0, intRow(0))); err != nil {
		t.Fatal(err)
	}
	parked := make(chan error, 1)
	go func() {
		parked <- ingest(sess, tvr.InsertEvent(1, intRow(1)))
	}()
	time.Sleep(10 * time.Millisecond) // let the producer park
	canceled := make(chan struct{})
	go func() {
		healthy.Cancel()
		close(canceled)
	}()
	closed := make(chan struct{})
	go func() {
		if _, err := bystander.Close(); err != nil {
			t.Errorf("bystander Close: %v", err)
		}
		close(closed)
	}()
	for _, wait := range []struct {
		name string
		ch   chan struct{}
	}{{"Cancel", canceled}, {"Close", closed}} {
		select {
		case <-wait.ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("%s of a healthy cursor stalled behind the slow peer", wait.name)
		}
	}
	select {
	case err := <-parked:
		t.Fatalf("producer returned (%v) before the slow cursor drained", err)
	default: // still parked on slow, as it should be
	}
	<-slow.Deltas() // drain: releases the producer
	if err := <-parked; err != nil {
		t.Fatalf("producer error = %v", err)
	}
	slow.Cancel()
}

// TestPlanTableSurvivesTeardownRace: a dying shared session's deferred
// unregister must not clobber the replacement Subscribe installed under the
// same plan key — otherwise later identical subscriptions silently stop
// sharing. Stress loop: with the bug, a stale teardown deletes the live
// plans entry and the next subscribe builds a second resident pipeline.
func TestPlanTableSurvivesTeardownRace(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	subscribe := func() *live.Subscription {
		t.Helper()
		sub, err := m.Subscribe("k", live.CursorOpts{Buffer: 8},
			func() (*live.Session, error) {
				return live.NewSession(&echoDriver{}, live.Config{
					Name: "k", Schema: testSchema(), Sources: []string{"s"},
				})
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	for i := 0; i < 100; i++ {
		sub1 := subscribe()
		// Occupy the manager's ordering lock so the cancel's deferred
		// unregister and the replacing subscribe pile up behind it and
		// race for it on release.
		hold := make(chan struct{})
		inCommit := make(chan struct{})
		pubDone := make(chan struct{})
		go func() {
			_ = m.PublishSpan(func() error { close(inCommit); <-hold; return nil }, "unmatched", tvr.Changelog{tvr.InsertEvent(1, intRow(1))}, nil)
			close(pubDone)
		}()
		<-inCommit
		// Queue the replacing subscribe on the manager lock first, THEN
		// cancel: the cancel closes the session without the manager lock
		// and parks its unregister behind the subscribe, which therefore
		// observes the dead session, replaces it, and only afterwards
		// does the stale unregister run — the clobber window.
		var sub2 *live.Subscription
		sub2Done := make(chan struct{})
		go func() {
			sub2 = subscribe()
			close(sub2Done)
		}()
		time.Sleep(time.Millisecond)
		cancelDone := make(chan struct{})
		go func() {
			sub1.Cancel()
			close(cancelDone)
		}()
		time.Sleep(time.Millisecond)
		close(hold)
		<-pubDone
		<-cancelDone
		<-sub2Done
		sub3 := subscribe() // must land on sub2's (live) session
		if n := m.Len(); n != 1 {
			t.Fatalf("iteration %d: %d resident sessions for one plan key, want 1 (plan table clobbered)", i, n)
		}
		if a, b := sub2.Stats().PipelineID, sub3.Stats().PipelineID; a != b {
			t.Fatalf("iteration %d: sub2 pipeline %d, sub3 pipeline %d — sharing broke", i, a, b)
		}
		sub2.Cancel()
		sub3.Cancel()
		if m.Len() != 0 {
			t.Fatalf("iteration %d: %d sessions after cancels", i, m.Len())
		}
	}
}

// TestDropOnlyDropsSlowCursor: a DropWithError cursor falling behind is
// dropped alone; the shared pipeline and its other subscribers continue.
func TestDropOnlyDropsSlowCursor(t *testing.T) {
	sess, droppy := newTestSession(t, &echoDriver{}, live.Stream, 1, live.DropWithError)
	keeper, err := sess.Attach(live.CursorOpts{Buffer: 16, Policy: live.Block})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
			t.Fatalf("ingest %d failed: %v (drop must not kill the shared session)", i, err)
		}
	}
	if !errors.Is(droppy.Err(), live.ErrSlowConsumer) {
		t.Fatalf("dropped cursor Err = %v, want ErrSlowConsumer", droppy.Err())
	}
	if keeper.Err() != nil {
		t.Fatalf("keeper Err = %v, want nil", keeper.Err())
	}
	n := 0
	for range droppy.Deltas() { // closed after the drop; one buffered delta
		n++
	}
	if n != 1 {
		t.Fatalf("dropped cursor had %d buffered deltas, want 1", n)
	}
	got := 0
	for i := 0; i < 5; i++ {
		d := <-keeper.Deltas()
		got += len(d.Stream)
	}
	if got != 5 {
		t.Fatalf("keeper received %d rows, want all 5", got)
	}
	if st := keeper.Stats(); st.Subscribers != 1 {
		t.Fatalf("Subscribers = %d after drop, want 1", st.Subscribers)
	}
	keeper.Cancel()
}

// TestManagerRouting: Publish routes only to sessions scanning the named
// relation, in commit order, and drops dead sessions from the table.
func TestManagerRouting(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	mk := func(source string) *live.Subscription {
		s, err := live.NewSession(&echoDriver{}, live.Config{
			Name: source, Schema: testSchema(), Sources: []string{source},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{Buffer: 64}, func() (*live.Session, error) { return s, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	subA := mk("a")
	subB := mk("b")
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	commits := 0
	publish := func(name string, v int64) {
		if err := m.PublishSpan(func() error { commits++; return nil }, name,
			tvr.Changelog{tvr.InsertEvent(types.Time(v), intRow(v))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	publish("a", 1)
	publish("b", 2)
	publish("a", 3)
	if commits != 3 {
		t.Fatalf("commits = %d, want 3", commits)
	}
	readAll := func(sub *live.Subscription) []int64 {
		var out []int64
		for {
			select {
			case d := <-sub.Deltas():
				out = append(out, streamInts(d)...)
			default:
				return out
			}
		}
	}
	if got := readAll(subA); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("subA rows = %v, want [1 3]", got)
	}
	if got := readAll(subB); len(got) != 1 || got[0] != 2 {
		t.Fatalf("subB rows = %v, want [2]", got)
	}
	// A failed commit must not route.
	wantErr := errors.New("commit failed")
	if err := m.PublishSpan(func() error { return wantErr }, "a",
		tvr.Changelog{tvr.InsertEvent(99, intRow(99))}, nil); !errors.Is(err, wantErr) {
		t.Fatalf("publish error = %v", err)
	}
	if got := readAll(subA); len(got) != 0 {
		t.Fatalf("rows routed despite failed commit: %v", got)
	}
	// Canceling removes the session from the routing table.
	subA.Cancel()
	if m.Len() != 1 {
		t.Fatalf("Len after cancel = %d, want 1", m.Len())
	}
	publish("a", 5) // no live session for "a": commit still succeeds
	if commits != 4 {
		t.Fatalf("commits = %d, want 4", commits)
	}
	subB.Cancel()
}

// TestFanoutRegistrationOrder: Publish and Advance visit sessions in
// registration-id order, not map order — churning the registry must not
// perturb delivery order (bugfix: nondeterministic map-range fan-out).
func TestFanoutRegistrationOrder(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	var got []int
	mk := func(tag int) *live.Subscription {
		d := &echoDriver{}
		d.feeds = func() { got = append(got, tag) }
		s, err := live.NewSession(d, live.Config{
			Name: "ord", Schema: testSchema(), Sources: []string{"s"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{Buffer: 64}, func() (*live.Session, error) { return s, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	subs := make(map[int]*live.Subscription)
	for i := 0; i < 8; i++ {
		subs[i] = mk(i)
	}
	// Churn the registry so a map-range implementation would reshuffle.
	subs[2].Cancel()
	subs[5].Cancel()
	subs[8] = mk(8)
	subs[9] = mk(9)
	want := []int{0, 1, 3, 4, 6, 7, 8, 9}
	for round := 0; round < 20; round++ {
		got = got[:0]
		if err := m.PublishSpan(func() error { return nil }, "s",
			tvr.Changelog{tvr.InsertEvent(types.Time(round), intRow(int64(round)))}, nil); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: fed %d sessions, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: fan-out order %v, want registration order %v", round, got, want)
			}
		}
	}
	for _, sub := range subs {
		sub.Cancel()
	}
}

// TestRegisterCatchesUpClock: a session registered after heartbeats have
// been broadcast is advanced to the latest processing time before it goes
// live, so pending EMIT AFTER DELAY timers fire exactly as an earlier
// registration's would (bugfix: stale clock on late-joining subscriptions).
func TestRegisterCatchesUpClock(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	early := &echoDriver{}
	s1, err := live.NewSession(early, live.Config{
		Name: "early", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := m.Subscribe(fmt.Sprintf("%p", s1), live.CursorOpts{}, func() (*live.Session, error) { return s1, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(early.advances) != 0 {
		t.Fatalf("first registration advanced to %v with no heartbeat broadcast yet", early.advances)
	}
	m.AdvanceWithSpan(100, nil, nil)
	m.AdvanceWithSpan(250, nil, nil)
	late := &echoDriver{}
	s2, err := live.NewSession(late, live.Config{
		Name: "late", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := m.Subscribe(fmt.Sprintf("%p", s2), live.CursorOpts{}, func() (*live.Session, error) { return s2, nil }, func() ([]exec.Source, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(late.advances) != 1 || late.advances[0] != 250 {
		t.Fatalf("late registration advances = %v, want [250] (catch-up to last heartbeat)", late.advances)
	}
	sub1.Cancel()
	sub2.Cancel()
}

// TestRegisterFailureCancelsSession: a registration whose history snapshot
// fails must cancel the already-started session instead of stranding its
// driver (bugfix: failed-subscribe leak).
func TestRegisterFailureCancelsSession(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	d := &echoDriver{}
	sess, err := live.NewSession(d, live.Config{
		Name: "fail", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("history snapshot failed")
	if _, err := m.Subscribe(fmt.Sprintf("%p", sess), live.CursorOpts{}, func() (*live.Session, error) { return sess, nil }, func() ([]exec.Source, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Subscribe error = %v, want %v", err, boom)
	}
	if !d.closed {
		t.Fatal("driver left running after failed registration")
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after failed registration, want 0", m.Len())
	}
	if _, err := sess.Attach(live.CursorOpts{}); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("Attach on canceled session = %v, want ErrClosed", err)
	}
}

// TestPublishBatchesOneDelta: a published changelog batch reaches each
// cursor as a single delivery, so a small DropWithError buffer survives
// large atomic appends instead of being spuriously dropped.
func TestPublishBatchesOneDelta(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	s, err := live.NewSession(&echoDriver{}, live.Config{
		Name: "batch", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{Buffer: 1, Policy: live.DropWithError}, func() (*live.Session, error) { return s, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	var log tvr.Changelog
	for i := 0; i < 100; i++ {
		log = append(log, tvr.InsertEvent(types.Time(i), intRow(int64(i))))
	}
	if err := m.PublishSpan(func() error { return nil }, "s", log, nil); err != nil {
		t.Fatal(err)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("batch publish dropped the subscription: %v", err)
	}
	d := <-sub.Deltas()
	if len(d.Stream) != 100 {
		t.Fatalf("delta has %d rows, want the whole batch (100)", len(d.Stream))
	}
	st := sub.Stats()
	if st.DeltasOut != 1 || st.EventsIn != 100 {
		t.Fatalf("stats = %+v, want DeltasOut=1 EventsIn=100", st)
	}
	sub.Cancel()
}

// TestConcurrentIngestAndCancel: racing publishers, a consumer, and a
// midstream cancel must neither deadlock nor panic (run with -race).
func TestConcurrentIngestAndCancel(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	s, err := live.NewSession(&echoDriver{}, live.Config{
		Name: "race", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{Buffer: 2, Policy: live.Block}, func() (*live.Session, error) { return s, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = m.PublishSpan(func() error { return nil }, "s",
				tvr.Changelog{tvr.InsertEvent(types.Time(i), intRow(int64(i)))}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for range sub.Deltas() {
			n++
			if n == 50 {
				sub.Cancel()
			}
		}
	}()
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after cancel, want 0", m.Len())
	}
}
