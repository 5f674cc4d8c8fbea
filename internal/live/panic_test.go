package live_test

// Panic-isolation regression tests: a panicking operator inside one
// standing query's driver must fail ONLY that session — its subscribers
// see the panic value (with stack) through Subscription.Err — while
// disjoint sessions keep streaming and the process survives. Pinned under
// both the serial fan-out and the sharded ingest subsystem, where the
// panic fires on a shard worker goroutine instead of the publisher's.

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
	for _, shards := range []int{0, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := live.NewManagerWith(live.Options{Shards: shards})
			defer m.Close()

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
			// applying this commit — on the publishing goroutine in serial
			// mode, on a shard worker with -shards. If the recover boundary
			// were missing this would crash the whole test process.
			publish(13)
			m.Quiesce() // barrier: sharded deliveries applied before asserting

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
	}
}

// TestPanicDuringAdvance: the same isolation holds on the heartbeat path
// (Advance), which in sharded mode also runs on the shard workers.
func TestPanicDuringAdvance(t *testing.T) {
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := live.NewManagerWith(live.Options{Shards: shards})
			defer m.Close()
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
			m.Quiesce()
			recvClosed(t, sub, "post-heartbeat-panic")
			var perr *exec.PanicError
			if !errors.As(sub.Err(), &perr) {
				t.Fatalf("Err = %v, want *exec.PanicError", sub.Err())
			}
		})
	}
}

type advancePanicDriver struct{ echoDriver }

func (d *advancePanicDriver) Advance(pt types.Time) error { panic("timer wheel corrupted") }
