package live

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/tvr"
	"repro/internal/types"
)

// recv receives sub's next delta, failing after a deadline.
func recv(t *testing.T, sub *Subscription) Delta {
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

// TestStalledReaderBoundsCappedRetention: past its retain cap a session keeps
// only what some cursor has not read. While one cursor stalls, the retained
// rows never exceed the rows it has not received plus one delivery (the
// reader records a receipt just after it); once it resumes it receives
// exactly the deltas its reading peer received, and the retained rows fall
// to at most one delivery. On the serial fan-out and on four shards.
func TestStalledReaderBoundsCappedRetention(t *testing.T) {
	const maxRows, per, commits, readFirst = 8, 3, 40, 3
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := NewManagerWith(Options{Shards: shards})
			defer m.Close()
			s, err := NewSession(&inOrderDriver{}, Config{Name: "capped", Sources: []string{"r"}, MaxRetainedRows: maxRows})
			if err != nil {
				t.Fatal(err)
			}
			create := func() (*Session, error) { return s, nil }
			stalled, err := m.Subscribe("capped", CursorOpts{}, create, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stalled.Cancel()
			peer, err := m.Subscribe("capped", CursorOpts{}, create, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Cancel()
			retained := func() int {
				s.mu.Lock()
				defer s.mu.Unlock()
				return len(s.out.rows)
			}

			var want, got []Delta
			v := int64(0)
			for i := 0; i < commits; i++ {
				var log tvr.Changelog
				for j := 0; j < per; j++ {
					v++
					log = append(log, tvr.InsertEvent(types.Time(v), types.Row{types.NewInt(v)}))
				}
				if err := m.PublishSpan(func() error { return nil }, "r", log, nil); err != nil {
					t.Fatal(err)
				}
				m.Quiesce()
				want = append(want, recv(t, peer))
				if i < readFirst {
					got = append(got, recv(t, stalled))
				}
				appended := int(v)
				if appended <= maxRows {
					continue
				}
				if bound := appended - len(got)*per + per; retained() > bound {
					t.Fatalf("commit %d: %d rows retained past the cap, want at most the stalled cursor's %d unread plus one delivery",
						i, retained(), appended-len(got)*per)
				}
			}
			for n := stalled.Stats().DeltasOut - int64(len(got)); n > 0; n-- {
				got = append(got, recv(t, stalled))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed cursor received\n%v\nits reading peer\n%v", got, want)
			}
			for deadline := time.Now().Add(5 * time.Second); retained() > per; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d rows retained after both cursors caught up, want at most one delivery (%d)", retained(), per)
				}
			}
		})
	}
}
