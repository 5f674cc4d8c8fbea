package live

import (
	"reflect"
	"runtime"
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
// to at most one delivery.
func TestStalledReaderBoundsCappedRetention(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("shards=0", func(t *testing.T) {
		const maxRows, per, commits, readFirst = 8, 3, 40, 3
		m := NewManagerWith(Options{})
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
			return s.out.rows.Len()
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

// TestCappedRetentionFreesChunks: a capped session fed 20 times its cap,
// with a reader that keeps up, holds at most its cap plus one chunk of rows
// in memory. Each row carries a 1 KiB payload, so the heap shows what the
// retained logs keep reachable: trimming frees whole chunks, and with them
// the rows they hold, where a resliced slice keeps its whole array alive.
func TestCappedRetentionFreesChunks(t *testing.T) {
	const maxRows, per = tvr.ChunkLen, 500
	const rowBytes = 1024 + 2*32 + 64 // payload, the row's two values, slack per row
	m := NewManagerWith(Options{})
	s, err := NewSession(&inOrderDriver{}, Config{Name: "capped", Sources: []string{"r"}, MaxRetainedRows: maxRows})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("capped", CursorOpts{}, func() (*Session, error) { return s, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	bound := int64(maxRows+tvr.ChunkLen)*rowBytes + 4<<20 // and the logs' chunk arrays
	v, peak := int64(0), int64(0)
	for i := 0; v < 20*maxRows; i++ {
		log := make(tvr.Changelog, per)
		for j := range log {
			v++
			payload := make([]byte, 1024)
			payload[0] = byte(v)
			log[j] = tvr.InsertEvent(types.Time(v), types.Row{types.NewInt(v), types.NewString(string(payload))})
		}
		if err := m.PublishSpan(func() error { return nil }, "r", log, nil); err != nil {
			t.Fatal(err)
		}
		recv(t, sub)
		if i%7 == 6 {
			grown := heap() - before
			if grown > bound {
				t.Fatalf("after %d rows the heap grew %d bytes, past the cap plus one chunk of rows (%d)", v, grown, bound)
			}
			peak = max(peak, grown)
		}
	}
	t.Logf("fed %d rows under a cap of %d: the heap grew at most %d bytes (bound %d)", v, maxRows, peak, bound)
	if !s.out.overflowed {
		t.Fatal("the session never passed its cap")
	}
}
