package live_test

// Tests for the sharded ingest subsystem at the manager level: the
// byte-identical property (every sharded session ≡ its serial twin under
// random interleavings), the registration-during-heartbeat-storm regression,
// cross-shard fairness under a saturated Block subscriber, and the drain
// barriers (late attach, graceful close).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// drainDeltas collects everything buffered on a subscription without
// blocking. Call only after the manager is quiesced.
func drainDeltas(sub *live.Subscription) []live.Delta {
	var out []live.Delta
	for {
		select {
		case d, ok := <-sub.Deltas():
			if !ok {
				return out
			}
			out = append(out, d)
		default:
			return out
		}
	}
}

// TestShardedMatchesSerialProperty is the byte-identical pin: K sessions
// spread across S shards, fed a random interleaving of publishes and
// heartbeats, must each deliver exactly the delta sequence the serial
// fan-out delivers to an identical twin — same delta boundaries, same rows,
// same stream metadata, same watermarks.
func TestShardedMatchesSerialProperty(t *testing.T) {
	sources := []string{"s0", "s1", "s2"}
	for _, shards := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				serial := live.NewManagerWith(live.Options{})
				sharded := live.NewManagerWith(live.Options{Shards: shards, QueueDepth: 8})
				defer sharded.Close()

				mk := func(m *live.Manager, src string) *live.Subscription {
					t.Helper()
					s, err := live.NewSession(&echoDriver{}, live.Config{
						Name: src, Mode: live.Stream, Schema: testSchema(), Sources: []string{src},
					})
					if err != nil {
						t.Fatal(err)
					}
					sub, err := m.Subscribe("", live.CursorOpts{Buffer: 4096}, func() (*live.Session, error) { return s, nil }, nil)
					if err != nil {
						t.Fatal(err)
					}
					return sub
				}
				type pair struct {
					serial, sharded *live.Subscription
					src             string
				}
				var pairs []pair
				addPair := func(src string) {
					pairs = append(pairs, pair{mk(serial, src), mk(sharded, src), src})
				}
				for i := 0; i < 6; i++ {
					addPair(sources[i%len(sources)])
				}

				pt := types.Time(0)
				val := int64(0)
				for op := 0; op < 300; op++ {
					switch {
					case op == 150:
						// Late joiner mid-stream: registration (clock
						// catch-up included) must commute identically.
						addPair(sources[rng.Intn(len(sources))])
					case rng.Intn(5) == 0:
						pt += types.Time(rng.Intn(3) + 1)
						serial.AdvanceWithSpan(pt, nil, nil)
						sharded.AdvanceWithSpan(pt, nil, nil)
					default:
						src := sources[rng.Intn(len(sources))]
						n := rng.Intn(3) + 1
						var log tvr.Changelog
						for j := 0; j < n; j++ {
							pt += types.Time(rng.Intn(2))
							val++
							log = append(log, tvr.InsertEvent(pt, intRow(val)))
						}
						if err := serial.PublishSpan(func() error { return nil }, src, log, nil); err != nil {
							t.Fatal(err)
						}
						if err := sharded.PublishSpan(func() error { return nil }, src, log, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				sharded.Quiesce()
				for i, p := range pairs {
					want := drainDeltas(p.serial)
					got := drainDeltas(p.sharded)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("session %d (%s): sharded deltas diverge from serial twin:\nserial:  %d deltas %+v\nsharded: %d deltas %+v",
							i, p.src, len(want), want, len(got), got)
					}
				}
				for _, p := range pairs {
					p.serial.Cancel()
					p.sharded.Cancel()
				}
			})
		}
	}
}

// TestRegisterDuringHeartbeatStorm is the satellite-1 regression: a session
// registered while heartbeats storm in must be caught up from the
// sequencer's committed clock (ordering-path state), never from what the
// shard workers have applied so far. Each registration first commits a
// heartbeat itself, so that value is a hard lower bound on the catch-up the
// new session must observe; a lagging (applied-side) read would come in
// below it. The session's advance sequence must also never regress.
func TestRegisterDuringHeartbeatStorm(t *testing.T) {
	m := live.NewManagerWith(live.Options{Shards: 4})
	defer m.Close()
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
			Name: fmt.Sprintf("storm%d", i), Mode: live.Stream, Schema: testSchema(), Sources: []string{"s"},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe("", live.CursorOpts{Buffer: 64, Policy: live.DropWithError}, func() (*live.Session, error) { return s, nil }, func() ([]exec.Source, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{d: d, sub: sub, lo: lo})
	}
	close(stop)
	wg.Wait()
	m.Quiesce()
	for _, r := range regs {
		r.sub.Cancel() // serializes with the workers: advances is stable after
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

// TestCrossShardFairness is the satellite-3 pin: a saturated Block-policy
// subscriber parks only its own shard worker; a session on another shard
// keeps receiving deltas promptly.
func TestCrossShardFairness(t *testing.T) {
	m := live.NewManagerWith(live.Options{Shards: 4, QueueDepth: 4})
	defer m.Close()
	mk := func(src string, buffer int) *live.Subscription {
		t.Helper()
		s, err := live.NewSession(&echoDriver{}, live.Config{
			Name: src, Mode: live.Stream, Schema: testSchema(), Sources: []string{src},
		})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.Subscribe("", live.CursorOpts{Buffer: buffer, Policy: live.Block}, func() (*live.Session, error) { return s, nil }, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	slow := mk("slow", 1)
	slowShard := slow.Stats().Shard
	if slowShard < 0 {
		t.Fatal("sharded manager reports Shard=-1")
	}
	// Find a session that hashes onto a different shard.
	var fast *live.Subscription
	var fastSrc string
	for i := 0; i < 64 && fast == nil; i++ {
		fastSrc = fmt.Sprintf("fast%d", i)
		sub := mk(fastSrc, 64)
		if sub.Stats().Shard != slowShard {
			fast = sub
		} else {
			sub.Cancel()
		}
	}
	if fast == nil {
		t.Fatal("could not place two sessions on distinct shards")
	}
	publish := func(src string, v int64) {
		t.Helper()
		if err := m.PublishSpan(func() error { return nil }, src,
			tvr.Changelog{tvr.InsertEvent(types.Time(v), intRow(v))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Delta 1 fills slow's buffer; delta 2 parks slow's shard worker.
	publish("slow", 1)
	publish("slow", 2)
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := m.ShardStats()[slowShard]
		if st.Lag >= 1 && st.Depth == 0 {
			break // the worker has picked up delta 2 and is parked on it
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow shard never parked: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	publish(fastSrc, 3)
	select {
	case d := <-fast.Deltas():
		if lat := time.Since(start); lat > 500*time.Millisecond {
			t.Fatalf("cross-shard delta took %s behind a saturated peer, want prompt delivery", lat)
		}
		if got := streamInts(d); len(got) != 1 || got[0] != 3 {
			t.Fatalf("fast delta = %v, want [3]", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delta on an unrelated shard never arrived while a peer shard was parked")
	}
	// The parked shard really is parked: nothing beyond delta 1 delivered yet.
	if got := streamInts(<-slow.Deltas()); len(got) != 1 || got[0] != 1 {
		t.Fatalf("slow delta 1 = %v", got)
	}
	if got := streamInts(<-slow.Deltas()); len(got) != 1 || got[0] != 2 {
		t.Fatalf("slow delta 2 = %v", got)
	}
	slow.Cancel()
	fast.Cancel()
}

// TestShardedLateAttachSeesAckedCommits: the plan-hit attach drains the
// session's shard first, so the snapshot hand-off reflects every
// acknowledged commit exactly once — no missing rows, no double delivery.
func TestShardedLateAttachSeesAckedCommits(t *testing.T) {
	m := live.NewManagerWith(live.Options{Shards: 2})
	defer m.Close()
	create := func() (*live.Session, error) {
		return live.NewSession(&echoDriver{}, live.Config{
			Name: "k", Mode: live.Stream, Schema: testSchema(), Sources: []string{"s"},
		})
	}
	sub1, err := m.Subscribe("k", live.CursorOpts{Buffer: 64}, create, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 5; v++ {
		if err := m.PublishSpan(func() error { return nil }, "s",
			tvr.Changelog{tvr.InsertEvent(types.Time(v), intRow(v))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// All five commits are acked; some may still sit in the shard queue.
	// The attach barrier must fold them all into the snapshot.
	sub2, err := m.Subscribe("k", live.CursorOpts{Buffer: 64}, create, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sub1.Stats().PipelineID, sub2.Stats().PipelineID; a != b {
		t.Fatalf("late subscriber got pipeline %d, want shared %d", b, a)
	}
	snap := <-sub2.Deltas()
	if got := streamInts(snap); len(got) != 5 || got[0] != 1 || got[4] != 5 {
		t.Fatalf("snapshot hand-off rows = %v, want [1 2 3 4 5]", got)
	}
	m.Quiesce()
	if extra := drainDeltas(sub2); len(extra) != 0 {
		t.Fatalf("late subscriber got %d deltas beyond the snapshot (double delivery): %+v", len(extra), extra)
	}
	sub1.Cancel()
	sub2.Cancel()
}

// TestShardedGracefulCloseKeepsAckedCommits: Close on a cursor drains the
// session's shard, so commits acknowledged before the close fold into the
// buffered/final deltas — ack == durable == delivered-or-folded.
func TestShardedGracefulCloseKeepsAckedCommits(t *testing.T) {
	m := live.NewManagerWith(live.Options{Shards: 2})
	defer m.Close()
	d := &echoDriver{final: intRow(999)}
	s, err := live.NewSession(d, live.Config{
		Name: "close", Mode: live.Stream, Schema: testSchema(), Sources: []string{"s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe("", live.CursorOpts{Buffer: 1, Policy: live.Block}, func() (*live.Session, error) { return s, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Three acked commits against a buffer of one: delta 1 lands in the
	// buffer, the shard worker parks on delta 2, delta 3 queues behind it.
	for v := int64(1); v <= 3; v++ {
		if err := m.PublishSpan(func() error { return nil }, "s",
			tvr.Changelog{tvr.InsertEvent(types.Time(v), intRow(v))}, nil); err != nil {
			t.Fatal(err)
		}
	}
	final, err := sub.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for del := range sub.Deltas() {
		got = append(got, streamInts(del)...)
	}
	if final != nil {
		got = append(got, streamInts(*final)...)
	}
	want := []int64{1, 2, 3, 999}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows across buffered+final deltas = %v, want %v (acked commit lost at close)", got, want)
	}
	if !d.closed {
		t.Fatal("driver not closed by last-cursor Close")
	}
}
