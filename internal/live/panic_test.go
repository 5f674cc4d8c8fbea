package live_test

// Panic-isolation regression tests: a panicking operator inside one
// standing query's driver must fail ONLY that session — its subscribers
// see the panic value (with stack) through Subscription.Err — while
// disjoint sessions keep streaming and the process survives.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// panicDriver is an echoDriver whose Feed panics when it sees the trigger
// value — a stand-in for an operator bug (nil map write, index out of
// range) deep inside one standing query's pipeline.
type panicDriver struct {
	echoDriver
	panicOn int64
}

func (d *panicDriver) Feed(batch []exec.Source) error {
	for _, s := range batch {
		for _, ev := range s.Log {
			if ev.IsData() && ev.Row[0].Int() == d.panicOn {
				panic(fmt.Sprintf("operator exploded on value %d", d.panicOn))
			}
		}
	}
	return d.echoDriver.Feed(batch)
}

func recvDelta(t *testing.T, sub *live.Subscription, what string) live.Delta {
	t.Helper()
	select {
	case d, ok := <-sub.Deltas():
		if !ok {
			t.Fatalf("%s: subscription closed (err=%v)", what, sub.Err())
		}
		return d
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: timed out waiting for delta", what)
	}
	panic("unreachable")
}

// recvClosed waits for the subscription's channel to close.
func recvClosed(t *testing.T, sub *live.Subscription, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub.Deltas():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatalf("%s: subscription did not terminate", what)
		}
	}
}

func TestPanicKillsOnlyItsSession(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("shards=0", func(t *testing.T) {
		m := live.NewManagerWith(live.Options{})

		newSess := func(name string, d exec.Driver) (*live.Session, *live.Subscription) {
			s, err := live.NewSession(d, live.Config{
				Name: name, Schema: testSchema(), Sources: []string{"S"},
			})
			if err != nil {
				t.Fatal(err)
			}
			sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			return s, sub
		}
		_, healthySub := newSess("healthy", &echoDriver{})
		_, doomedSub := newSess("doomed", &panicDriver{panicOn: 13})

		publish := func(v int64) {
			t.Helper()
			err := m.PublishSpan(func() error { return nil }, "S",
				[]tvr.Event{tvr.InsertEvent(types.Time(v), intRow(v))}, nil)
			if err != nil {
				t.Fatalf("publish %d: %v", v, err)
			}
		}

		// Both sessions serve normally first.
		publish(1)
		if got := streamInts(recvDelta(t, healthySub, "healthy pre-panic")); got[0] != 1 {
			t.Fatalf("healthy delta = %v", got)
		}
		if got := streamInts(recvDelta(t, doomedSub, "doomed pre-panic")); got[0] != 1 {
			t.Fatalf("doomed delta = %v", got)
		}

		// The poison value: the doomed session's operator panics while
		// applying this commit on the publishing goroutine. If the recover
		// boundary were missing this would crash the whole test process.
		publish(13)

		// The doomed session died, and its subscriber can see why: the
		// panic value and stack, not a generic closure.
		recvClosed(t, doomedSub, "doomed post-panic")
		var perr *exec.PanicError
		if err := doomedSub.Err(); !errors.As(err, &perr) {
			t.Fatalf("doomed Err = %v, want *exec.PanicError", err)
		} else {
			if !strings.Contains(fmt.Sprint(perr.Value), "operator exploded on value 13") {
				t.Fatalf("panic value not preserved: %v", perr.Value)
			}
			if len(perr.Stack) == 0 {
				t.Fatal("panic stack not captured")
			}
		}

		// The disjoint session never noticed: it received the same
		// commit unharmed and keeps receiving subsequent ones.
		if got := streamInts(recvDelta(t, healthySub, "healthy at-panic")); got[0] != 13 {
			t.Fatalf("healthy delta during panic commit = %v", got)
		}
		publish(2)
		if got := streamInts(recvDelta(t, healthySub, "healthy post-panic")); got[0] != 2 {
			t.Fatalf("healthy delta after panic = %v", got)
		}
		if healthySub.Err() != nil {
			t.Fatalf("healthy subscription failed: %v", healthySub.Err())
		}
	})

	// A panic in the render/deliver half of a delivery (here Drain, after
	// a Feed that succeeded) fails only its own session too.
	t.Run("drain", func(t *testing.T) {
		t.Run("at registration", func(t *testing.T) {
			m := live.NewManagerWith(live.Options{})
			_, healthySub := subscribeNew(t, m, "healthy", &echoDriver{}, nil)
			d := &drainPanicDriver{panicOn: 13}
			s, err := live.NewSession(d, live.Config{Name: "doomed", Schema: testSchema(), Sources: []string{"S"}})
			if err != nil {
				t.Fatal(err)
			}
			history := func() ([]exec.Source, error) {
				return []exec.Source{{Name: "S", Log: tvr.Changelog{tvr.InsertEvent(1, intRow(13))}}}, nil
			}
			_, err = m.Subscribe("doomed", live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, history)
			var perr *exec.PanicError
			if !errors.As(err, &perr) || !strings.Contains(fmt.Sprint(perr.Value), "drain exploded") {
				t.Fatalf("Subscribe error = %v, want the Drain panic as *exec.PanicError", err)
			}
			if !d.closed {
				t.Fatal("the panicking registration left its driver running")
			}
			if m.Len() != 1 {
				t.Fatalf("Len = %d after the failed registration, want 1 (the healthy session)", m.Len())
			}
			if _, err := s.Attach(live.CursorOpts{}); !errors.As(err, &perr) {
				t.Fatalf("Attach to the failed session = %v, want its panic", err)
			}
			publishInt(t, m, 2)
			if got := streamInts(recvDelta(t, healthySub, "healthy after the failed registration")); len(got) != 1 || got[0] != 2 {
				t.Fatalf("healthy delta = %v, want [2]", got)
			}
			healthySub.Cancel()
		})
		t.Run("at a commit", func(t *testing.T) {
			m := live.NewManagerWith(live.Options{})
			_, healthySub := subscribeNew(t, m, "healthy", &echoDriver{}, nil)
			d := &drainPanicDriver{panicOn: 13}
			_, doomedSub := subscribeNew(t, m, "doomed", d, nil)
			publishInt(t, m, 13)
			recvClosed(t, doomedSub, "doomed after the Drain panic")
			var perr *exec.PanicError
			if err := doomedSub.Err(); !errors.As(err, &perr) || !strings.Contains(fmt.Sprint(perr.Value), "drain exploded") {
				t.Fatalf("doomed Err = %v, want the Drain panic as *exec.PanicError", err)
			}
			if !d.closed || m.Len() != 1 {
				t.Fatalf("driver closed=%v, Len=%d after the Drain panic; want closed and 1", d.closed, m.Len())
			}
			if got := streamInts(recvDelta(t, healthySub, "healthy at the panic")); len(got) != 1 || got[0] != 13 {
				t.Fatalf("healthy delta during the panic commit = %v", got)
			}
			publishInt(t, m, 2)
			if got := streamInts(recvDelta(t, healthySub, "healthy after the panic")); len(got) != 1 || got[0] != 2 {
				t.Fatalf("healthy delta after the panic = %v", got)
			}
			healthySub.Cancel()
		})
	})
}

// drainPanicDriver is an echoDriver that panics when the session takes its
// output (OutputWatermark, read as the delivery begins) while the staged
// output holds the trigger value: a stand-in for a fault in draining or
// rendering the output after an operator chain ran cleanly.
type drainPanicDriver struct {
	echoDriver
	panicOn int64
}

func (d *drainPanicDriver) OutputWatermark() types.Time {
	for staged := d.out.Staged(); staged.Len() > 0; {
		var evs []tvr.Event
		evs, staged = staged.Next()
		for _, ev := range evs {
			if ev.Row[0].Int() == d.panicOn {
				panic(fmt.Sprintf("drain exploded on value %d", d.panicOn))
			}
		}
	}
	return d.echoDriver.OutputWatermark()
}

// subscribeNew registers a fresh session on d with one cursor, under a key
// of its own.
func subscribeNew(t *testing.T, m *live.Manager, name string, d exec.Driver, history func() ([]exec.Source, error)) (*live.Session, *live.Subscription) {
	t.Helper()
	s, err := live.NewSession(d, live.Config{Name: name, Schema: testSchema(), Sources: []string{"S"}})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(name, live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, history)
	if err != nil {
		t.Fatal(err)
	}
	return s, sub
}

// publishInt commits one insert of v to relation S.
func publishInt(t *testing.T, m *live.Manager, v int64) {
	t.Helper()
	if err := m.PublishSpan(func() error { return nil }, "S", tvr.Changelog{tvr.InsertEvent(types.Time(v), intRow(v))}, nil); err != nil {
		t.Fatalf("publish %d: %v", v, err)
	}
}

// TestPanicDuringAdvance: the same isolation holds on the heartbeat path
// (Advance).
func TestPanicDuringAdvance(t *testing.T) {
	// The subtest keeps the name the serial case had when a sharded
	// fan-out ran beside it.
	t.Run("shards=0", func(t *testing.T) {
		m := live.NewManagerWith(live.Options{})
		d := &advancePanicDriver{}
		s, err := live.NewSession(d, live.Config{
			Name: "t", Schema: testSchema(), Sources: []string{"S"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe(fmt.Sprintf("%p", s), live.CursorOpts{}, func() (*live.Session, error) { return s, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.AdvanceWithSpan(types.Time(types.Second), nil, nil)
		recvClosed(t, sub, "post-heartbeat-panic")
		var perr *exec.PanicError
		if !errors.As(sub.Err(), &perr) {
			t.Fatalf("Err = %v, want *exec.PanicError", sub.Err())
		}
	})
}

type advancePanicDriver struct{ echoDriver }

func (d *advancePanicDriver) Advance(pt types.Time) error { panic("timer wheel corrupted") }
