package live_test

// Audit: (*exec.Pipeline).Stats walks operator state (O(aggregate groups)),
// so nothing on the per-ingest / per-delta path may call it — those paths
// must use DispatchStats, which only reads two counters. exec.Driver has no
// Stats method, so the compiler keeps the session machinery off it; a
// counting stub driver proves the hot path does poll DispatchStats, no
// matter how many batches, heartbeats, and deliveries flow through.

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// statsCountingDriver counts DispatchStats calls on top of echoDriver.
type statsCountingDriver struct {
	echoDriver
	dispatchStatsCalls int
}

func (d *statsCountingDriver) DispatchStats() (int64, int64) {
	d.dispatchStatsCalls++
	return d.echoDriver.DispatchStats()
}

func TestNoHotPathDriverStats(t *testing.T) {
	d := &statsCountingDriver{}
	s, sub := newTestSession(t, d, live.Stream)
	defer sub.Cancel()

	const rounds = 50
	for i := 0; i < rounds; i++ {
		err := s.IngestLog([]exec.Source{{
			Name: "S",
			Log:  tvr.Changelog{tvr.InsertEvent(types.Time(i+1), intRow(int64(i)))},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Advance(types.Time(i + 1)); err != nil {
			t.Fatal(err)
		}
		// Receive the delivery so the full render/deliver path runs too.
		next(t, sub)
	}

	// The cheap counter really is what the hot path polls.
	if d.dispatchStatsCalls < rounds {
		t.Fatalf("DispatchStats() called %d times, want >= %d (one per ingest)", d.dispatchStatsCalls, rounds)
	}
}
