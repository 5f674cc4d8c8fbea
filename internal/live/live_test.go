package live_test

// Unit tests for the session/cursor/subscription machinery: cancellation,
// graceful close, diff consolidation, shared-plan fan-out with
// per-subscriber cursors, and manager routing — driven by a scripted
// in-memory exec.Driver so the tests control exactly when output
// materializes.

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// echoDriver is a minimal exec.Driver: every fed data event materializes as
// one output event (identity query), and Close emits one final marker row.
type echoDriver struct {
	started  bool
	closed   bool
	out      tvr.Log[tvr.Event] // output, staged until the session publishes it
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
				d.out.Stage(ev)
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
		d.out.Stage(tvr.InsertEvent(types.MaxTime, d.final))
	}
	return nil
}

func (d *echoDriver) Output() *tvr.Log[tvr.Event] { return &d.out }

func (d *echoDriver) OutputWatermark() types.Time   { return d.wm }
func (d *echoDriver) DispatchStats() (int64, int64) { return 0, 0 }
func (d *echoDriver) FedInMergeOrder() bool         { return false }

func testSchema() *types.Schema {
	return types.NewSchema(types.Column{Name: "v", Kind: types.KindInt64})
}

func intRow(v int64) types.Row { return types.Row{types.NewInt(v)} }

func newTestSession(t *testing.T, d exec.Driver, mode live.Mode) (*live.Session, *live.Subscription) {
	t.Helper()
	s, err := live.NewSession(d, live.Config{
		Name: "test", Schema: testSchema(), Sources: []string{"S"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Attach(live.CursorOpts{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	return s, sub
}

// ingest feeds one event of relation "s" through sess.
func ingest(sess *live.Session, ev tvr.Event) error {
	return sess.IngestLog([]exec.Source{{Name: "s", Log: tvr.Changelog{ev}}})
}

// next receives the subscription's next delta, failing after a deadline.
func next(t *testing.T, sub *live.Subscription) live.Delta {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatalf("subscription closed (err=%v)", sub.Err())
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a delta")
	}
	panic("unreachable")
}

// streamInts extracts the int payloads of a delta's stream rows.
func streamInts(d live.Delta) []int64 {
	var out []int64
	for _, r := range d.Stream {
		out = append(out, r.Row[0].Int())
	}
	return out
}

// TestCancelUnblocksProducer: a producer never waits on a subscriber that
// stopped reading, canceling that subscriber ends its subscription, and the
// last cursor's cancel tears the session down.
func TestCancelUnblocksProducer(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Stream)
	for i := 0; i < 5; i++ {
		if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if st := sub.Stats(); st.DeltasOut != 5 || st.Unread != 5 {
		t.Fatalf("stats = %+v, want 5 deltas owed, all unread", st)
	}
	sub.Cancel()
	if !errors.Is(sub.Err(), live.ErrClosed) {
		t.Fatalf("Err() = %v, want ErrClosed", sub.Err())
	}
	// Channel must be closed: the unread deltas are abandoned.
	for range sub.Deltas() {
		t.Fatal("a canceled subscription delivered a delta")
	}
	// The session died with its last cursor: no more input accepted.
	if err := ingest(sess, tvr.InsertEvent(100, intRow(100))); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("post-cancel ingest error = %v, want ErrClosed", err)
	}
}

// returnsWithin fails the test if fn does not return within a deadline.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s stalled behind a subscriber that stopped reading", what)
	}
}

// TestBlockBackpressure (named for the blocking policy it replaced): a slow
// consumer loses nothing and exerts no backpressure. The producer commits
// every event without waiting on it, and the consumer, reading at its own
// pace, then receives one delta per commit, in order.
func TestBlockBackpressure(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Stream)
	defer sub.Cancel()
	const n = 20
	returnsWithin(t, "the producer", func() {
		for i := 0; i < n; i++ {
			if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				t.Errorf("ingest %d: %v", i, err)
				return
			}
		}
	})
	if st := sub.Stats(); st.DeltasOut != n || st.Unread != n {
		t.Fatalf("stats = %+v, want %d deltas owed, all unread", st, n)
	}
	var got []int64
	for i := 0; i < n; i++ {
		d := next(t, sub)
		time.Sleep(time.Millisecond) // deliberately slow consumer
		got = append(got, streamInts(d)...)
	}
	if len(got) != n {
		t.Fatalf("received %d rows, want %d", len(got), n)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("delta %d = %d, want %d (order or loss for a slow consumer)", i, v, i)
		}
	}
}

// TestSlowBlockPeerDoesNotStallOthers: with two cursors on one session, a
// peer that stops reading stalls neither the producer nor the reading
// cursor, which receives each delta as it is committed; the stalled peer,
// once it resumes, receives exactly the same deltas.
func TestSlowBlockPeerDoesNotStallOthers(t *testing.T) {
	sess, slow := newTestSession(t, &echoDriver{}, live.Stream)
	defer slow.Cancel()
	fast, err := sess.Attach(live.CursorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Cancel()
	const n = 100
	var want []live.Delta
	for i := 0; i < n; i++ {
		returnsWithin(t, "a commit", func() {
			if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				t.Error(err)
			}
		})
		d := next(t, fast)
		if got := streamInts(d); len(got) != 1 || got[0] != int64(i) {
			t.Fatalf("fast delta %d = %v", i, got)
		}
		want = append(want, d)
	}
	if st := slow.Stats(); st.DeltasOut != n || st.Unread != n {
		t.Fatalf("slow stats = %+v, want %d deltas owed, all unread", st, n)
	}
	var got []live.Delta
	for i := 0; i < n; i++ {
		got = append(got, next(t, slow))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the resumed slow cursor's deltas differ from its reading peer's")
	}
}

// TestCancelNotBlockedBehindSlowPeer: canceling or closing a healthy cursor
// completes promptly while a peer on the same session has stopped reading
// with deltas owed, and neither leaves the producer waiting on that peer.
func TestCancelNotBlockedBehindSlowPeer(t *testing.T) {
	sess, slow := newTestSession(t, &echoDriver{}, live.Stream)
	defer slow.Cancel()
	healthy, err := sess.Attach(live.CursorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := sess.Attach(live.CursorOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	returnsWithin(t, "Cancel of a healthy cursor", healthy.Cancel)
	returnsWithin(t, "Close of a healthy cursor", func() {
		if _, err := bystander.Close(); err != nil {
			t.Errorf("bystander Close: %v", err)
		}
	})
	returnsWithin(t, "a commit after the peers left", func() {
		if err := ingest(sess, tvr.InsertEvent(2, intRow(2))); err != nil {
			t.Error(err)
		}
	})
	for i := int64(0); i < 3; i++ {
		if got := streamInts(next(t, slow)); len(got) != 1 || got[0] != i {
			t.Fatalf("slow delta %d = %v", i, got)
		}
	}
}

// TestGracefulCloseDeliversFinalDelta: Close completes the pipeline and
// returns the unread delivery and the end-of-input emissions as the final
// delta, without touching the channel.
func TestGracefulCloseDeliversFinalDelta(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, sub := newTestSession(t, d, live.Stream)
	if err := ingest(sess, tvr.InsertEvent(1, intRow(1))); err != nil {
		t.Fatal(err)
	}
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || fmt.Sprint(streamInts(*final)) != "[1 999]" {
		t.Fatalf("final delta = %+v, want the unread row 1, then the close marker", final)
	}
	if !d.closed {
		t.Fatal("driver was not closed")
	}
	if sub.Err() != nil {
		t.Fatalf("Err after graceful close = %v", sub.Err())
	}
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("channel still open after Close")
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

// TestCloseKeepsInterruptedDelta: deliveries appended after the consumer
// stopped reading are not lost when it calls Close — they fold into the
// final delta, ahead of the close-time output.
func TestCloseKeepsInterruptedDelta(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, sub := newTestSession(t, d, live.Stream)
	if err := ingest(sess, tvr.InsertEvent(1, intRow(1))); err != nil {
		t.Fatal(err)
	}
	if got := streamInts(next(t, sub)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("delta 0 = %v, want [1]", got)
	}
	// The consumer stops reading; the producer does not wait for it.
	if err := ingest(sess, tvr.InsertEvent(2, intRow(2))); err != nil {
		t.Fatal(err)
	}
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The final delta must contain the unread row 2 AND the close marker
	// 999 — nothing lost, order preserved.
	got := streamInts(*final)
	if len(got) != 2 || got[0] != 2 || got[1] != 999 {
		t.Fatalf("final delta rows = %v, want [2 999]", got)
	}
	if _, ok := <-sub.Deltas(); ok {
		t.Fatal("channel still open after Close")
	}
}

// TestTableDiffConsolidation: insert+delete of the same row inside one
// delivery cancels out of the diff.
func TestTableDiffConsolidation(t *testing.T) {
	sess, sub := newTestSession(t, &echoDriver{}, live.Table)
	err := sess.IngestLog([]exec.Source{{Name: "s", Log: tvr.Changelog{
		tvr.InsertEvent(1, intRow(1)),
		tvr.InsertEvent(2, intRow(2)),
		tvr.DeleteEvent(3, intRow(1)), // cancels the first insert
		tvr.InsertEvent(4, intRow(2)), // multiplicity 2
	}}})
	if err != nil {
		t.Fatal(err)
	}
	d := next(t, sub)
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
		if subs[i], err = m.Subscribe("fanout", live.CursorOpts{}, func() (*live.Session, error) { return sess, nil }, nil); err != nil {
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
			d := next(t, sub)
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
	a, err := m.Subscribe("rc", live.CursorOpts{}, func() (*live.Session, error) { return sess, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sess.Attach(live.CursorOpts{})
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
	if got := streamInts(next(t, b)); len(got) != 1 || got[0] != 7 {
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
// detaches the cursor, handing over what it had not read; the standing query
// keeps running for the others, and the last Close completes it.
func TestNonLastCloseLeavesPipeline(t *testing.T) {
	d := &echoDriver{final: intRow(999)}
	sess, a := newTestSession(t, d, live.Stream)
	b, err := sess.Attach(live.CursorOpts{})
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
	if final == nil || fmt.Sprint(streamInts(*final)) != "[1]" {
		t.Fatalf("non-last Close final delta = %+v, want its unread row 1", final)
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
	if finalB == nil || fmt.Sprint(streamInts(*finalB)) != "[1 2 999]" {
		t.Fatalf("last Close final delta = %+v, want the unread rows 1 and 2, then the close marker", finalB)
	}
	if !d.closed {
		t.Fatal("driver not closed after last Close")
	}
	if _, ok := <-b.Deltas(); ok {
		t.Fatal("channel still open after Close")
	}
}

// TestLateAttachSnapshot: a cursor attaching after the pipeline has produced
// output receives the snapshot hand-off first — the full stream rendering
// with the original version numbers (Stream mode) or one consolidated diff
// reconstructing the snapshot (Table mode) — then lives on the shared feed.
func TestLateAttachSnapshot(t *testing.T) {
	t.Run("stream", func(t *testing.T) {
		sess, early := newTestSession(t, &echoDriver{}, live.Stream)
		for i := 0; i < 3; i++ {
			if err := ingest(sess, tvr.InsertEvent(types.Time(i), intRow(int64(i)))); err != nil {
				t.Fatal(err)
			}
		}
		late, err := sess.Attach(live.CursorOpts{})
		if err != nil {
			t.Fatal(err)
		}
		snap := next(t, late)
		if got := streamInts(snap); len(got) != 3 || got[0] != 0 || got[2] != 2 {
			t.Fatalf("snapshot rows = %v, want [0 1 2]", got)
		}
		// Version numbers continue across the hand-off: the next delta's
		// row versions at the late cursor equal the early cursor's.
		if err := ingest(sess, tvr.InsertEvent(10, intRow(10))); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			next(t, early) // skip the three pre-attach deltas
		}
		de, dl := next(t, early), next(t, late)
		if len(de.Stream) != 1 || len(dl.Stream) != 1 || de.Stream[0].Ver != dl.Stream[0].Ver {
			t.Fatalf("post-attach versions diverge: early %+v late %+v", de.Stream, dl.Stream)
		}
		early.Cancel()
		late.Cancel()
	})
	t.Run("table", func(t *testing.T) {
		sess, early := newTestSession(t, &echoDriver{}, live.Table)
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
		late, err := sess.Attach(live.CursorOpts{Mode: live.Table})
		if err != nil {
			t.Fatal(err)
		}
		snap := next(t, late)
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

// TestPlanTableSurvivesTeardownRace: a shared session whose last cursor
// departs while a Subscribe of the same plan key waits on the manager lock
// must leave exactly one resident session under the key — either the
// subscribe revives it, and its departing cursor then leaves it alone, or the
// session leaves first and the subscribe's replacement keeps the key.
// Otherwise later identical subscriptions silently stop sharing. Stress loop:
// with the bug (a departing session deleting whatever the key held), the
// next subscribe builds a second resident pipeline.
func TestPlanTableSurvivesTeardownRace(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	subscribe := func() *live.Subscription {
		t.Helper()
		sub, err := m.Subscribe("k", live.CursorOpts{},
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
		// Occupy the manager's ordering lock so the cancel's removal of
		// its session and the replacing subscribe pile up behind it and
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
		// cancel: the cancel detaches its cursor without the manager lock
		// and parks the session's removal behind the subscribe, which
		// therefore finds the session without cursors and attaches to it;
		// only afterwards does the removal run, and it must find the
		// session revived.
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
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
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
	// readAll receives every delta owed to sub so far: DeltasOut counts a
	// delivery as it is appended.
	read := map[*live.Subscription]int64{}
	readAll := func(sub *live.Subscription) []int64 {
		var out []int64
		for ; read[sub] < sub.Stats().DeltasOut; read[sub]++ {
			out = append(out, streamInts(next(t, sub))...)
		}
		return out
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
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
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

// TestRegisterDuringHeartbeatStorm: a session registered while heartbeats
// storm in from other goroutines is caught up to the last committed
// heartbeat. Each registration first commits a heartbeat itself, so that
// value is a hard lower bound on the catch-up the new session must observe.
// The session's advance sequence must also never regress.
func TestRegisterDuringHeartbeatStorm(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	// Heartbeats commit in clock order: reading the clock and committing
	// happen under one lock, or two storm goroutines could commit their
	// values out of order and the regression check below would fire on the
	// test's own race. Registration still runs concurrently with the storm.
	var clockMu sync.Mutex
	var clock types.Time
	advance := func() types.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock++
		m.AdvanceWithSpan(clock, nil, nil)
		return clock
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					advance()
				}
			}
		}()
	}
	type reg struct {
		d   *echoDriver
		sub *live.Subscription
		lo  types.Time // heartbeat committed before this registration
	}
	var regs []reg
	for i := 0; i < 40; i++ {
		lo := advance() // committed once this returns: a floor for the catch-up
		d := &echoDriver{}
		s, err := live.NewSession(d, live.Config{
			Name: fmt.Sprintf("storm%d", i), Schema: testSchema(), Sources: []string{"s"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, func() ([]exec.Source, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{d: d, sub: sub, lo: lo})
	}
	close(stop)
	wg.Wait()
	for _, r := range regs {
		r.sub.Cancel()
	}
	for i, r := range regs {
		if len(r.d.advances) == 0 {
			t.Fatalf("registration %d saw no catch-up advance despite committed heartbeats", i)
		}
		if r.d.advances[0] < r.lo {
			t.Fatalf("registration %d caught up to %s, below the already-committed heartbeat %s (stale clock read)",
				i, r.d.advances[0], r.lo)
		}
		for j := 1; j < len(r.d.advances); j++ {
			if r.d.advances[j] < r.d.advances[j-1] {
				t.Fatalf("registration %d: advance %d regresses (%s after %s)",
					i, j, r.d.advances[j], r.d.advances[j-1])
			}
		}
	}
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
// cursor as a single delivery.
func TestPublishBatchesOneDelta(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	s, err := live.NewSession(&echoDriver{}, live.Config{
		Name: "batch", Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
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
	d := next(t, sub)
	if len(d.Stream) != 100 {
		t.Fatalf("delta has %d rows, want the whole batch (100)", len(d.Stream))
	}
	st := sub.Stats()
	if st.DeltasOut != 1 || st.EventsIn != 100 {
		t.Fatalf("stats = %+v, want DeltasOut=1 EventsIn=100", st)
	}
	sub.Cancel()
}

// TestConcurrentIngestAndCancel: racing publishers, consumers, a midstream
// cancel, a midstream last-cursor Close and a checkpoint loop must neither
// deadlock nor panic (run with -race). The closed subscription's rows, on the
// channel and in its final delta, are a gapless prefix of the commits, and
// every checkpoint succeeds while sessions leave beside it.
func TestConcurrentIngestAndCancel(t *testing.T) {
	m := live.NewManagerWith(live.Options{})
	subscribe := func(name string) *live.Subscription {
		t.Helper()
		s, err := live.NewSession(compilePassthrough(t), live.Config{
			Name: name, Schema: testSchema(), Sources: []string{"s"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(name, live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	canceled, closed := subscribe("cancel"), subscribe("close")
	var wg sync.WaitGroup
	published := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(published)
		for i := 0; i < 200; i++ {
			_ = m.PublishSpan(func() error { return nil }, "s",
				tvr.Changelog{tvr.InsertEvent(types.Time(i), intRow(int64(i)))}, nil)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for range canceled.Deltas() {
			n++
			if n == 50 {
				canceled.Cancel()
			}
		}
	}()
	var rows []int64
	var closeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := range closed.Deltas() {
			if rows = append(rows, streamInts(d)...); len(rows) >= 50 {
				break
			}
		}
		final, err := closed.Close()
		if final != nil {
			rows = append(rows, streamInts(*final)...)
		}
		closeErr = err
	}()
	var checkpoints int
	var checkpointErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := m.CheckpointAll(checkpoint.NewEncoder(io.Discard), nil); err != nil {
				checkpointErr = err
				return
			}
			checkpoints++
			select {
			case <-published:
				return
			default:
			}
		}
	}()
	wg.Wait()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after cancel and close, want 0", m.Len())
	}
	if closeErr != nil || closed.Err() != nil {
		t.Fatalf("last-cursor Close: err %v, Err() %v; want nil", closeErr, closed.Err())
	}
	if len(rows) < 50 {
		t.Fatalf("closed subscription received %d rows, want at least the 50 before its Close", len(rows))
	}
	for i, v := range rows {
		if v != int64(i) {
			t.Fatalf("closed subscription row %d = %d: not a gapless prefix of the commits", i, v)
		}
	}
	if checkpointErr != nil || checkpoints == 0 {
		t.Fatalf("checkpoints: %d passes, err %v", checkpoints, checkpointErr)
	}
}

// compilePassthrough compiles SELECT v FROM s, over a stream s of testSchema,
// into a real pipeline, which unlike the scripted drivers can be
// checkpointed.
func compilePassthrough(t *testing.T) exec.Driver {
	t.Helper()
	q, err := sqlparser.Parse("SELECT v FROM s")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := plan.New(oneStream{}, plan.Config{}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := exec.Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oneStream is a catalog holding one unbounded relation, s, of testSchema.
type oneStream struct{}

func (oneStream) Resolve(name string) (*plan.Relation, error) {
	if name != "s" {
		return nil, fmt.Errorf("relation %q not found", name)
	}
	return &plan.Relation{Name: "s", Schema: testSchema(), Unbounded: true}, nil
}
