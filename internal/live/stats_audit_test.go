package live_test

// Audit: exec.Driver.Stats walks operator state (O(aggregate groups)), so
// nothing on the per-ingest / per-delta path may call it — those paths must
// use DispatchStats, which only reads two counters. A counting stub driver
// proves the session machinery never touches Stats, no matter how many
// batches, heartbeats, and deliveries flow through.

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// statsCountingDriver counts Stats/DispatchStats calls on top of echoDriver.
type statsCountingDriver struct {
	echoDriver
	statsCalls         int
	dispatchStatsCalls int
}

func (d *statsCountingDriver) Stats() exec.Stats {
	d.statsCalls++
	return d.echoDriver.Stats()
}

func (d *statsCountingDriver) DispatchStats() (int64, int64) {
	d.dispatchStatsCalls++
	return d.echoDriver.DispatchStats()
}

func TestNoHotPathDriverStats(t *testing.T) {
	d := &statsCountingDriver{}
	s, sub := newTestSession(t, d, live.Stream, 256, live.Block)
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
		// Drain the delivery so the full render/deliver path runs too.
		select {
		case <-sub.Deltas():
		default:
		}
	}

	// Neither construction nor the ingest, heartbeat, and delivery paths
	// may call Stats.
	if d.statsCalls > 0 {
		t.Fatalf("Stats() called %d times across %d ingest/advance/deliver cycles; "+
			"hot paths must use DispatchStats (O(1)), not Stats (O(groups))", d.statsCalls, rounds)
	}
	// Sanity: the cheap counter really is what the hot path polls.
	if d.dispatchStatsCalls < rounds {
		t.Fatalf("DispatchStats() called %d times, want >= %d (one per ingest)", d.dispatchStatsCalls, rounds)
	}
}
