package exec

import (
	"fmt"
	"sort"

	"repro/internal/tvr"
	"repro/internal/types"
)

// Driver is the incremental execution lifecycle a standing query runs on.
// Pipeline is its implementation; the interface lets the standing-query
// layer's tests substitute a fake. A driver is compiled once and then kept
// resident: Start opens the operators, Feed pushes batches of new source
// events through the same deterministic k-way ptime merge the one-shot Run
// uses, Advance moves the processing-time clock (firing EMIT AFTER DELAY
// timers), and Close completes the input. Drain hands back output deltas as
// they materialize — the primitive the standing-query subsystem
// (internal/live) is built on.
//
// Determinism contract: feeding a set of source changelogs through any
// sequence of Feed batches whose concatenated delivery order equals the
// one-shot merge order (always true when batches are split along the ptime
// axis) produces byte-identical output to a single Run over the same logs.
// FedInMergeOrder reports whether that precondition has held so far.
type Driver interface {
	// Start opens the pipeline's operators.
	Start() error
	// Feed merges and pushes a batch of new per-source events. Sources
	// with no new events may be omitted from the batch.
	Feed(batch []Source) error
	// Advance moves the processing-time clock to pt (a heartbeat).
	Advance(pt types.Time) error
	// Close signals end-of-input; what that materializes is left for Drain.
	Close() error
	// Drain hands over the output events materialized since the previous
	// Drain; the caller owns them (see the package doc).
	Drain() tvr.Changelog
	// OutputWatermark is the output relation's current watermark.
	OutputWatermark() types.Time
	// Stats reports the pipeline's execution statistics. It walks operator
	// state (O(aggregate groups)); per-ingest callers that only need the
	// dispatch counters must use DispatchStats instead.
	Stats() Stats
	// DispatchStats returns the cumulative dispatch count and dispatched
	// event count without touching operator state — cheap enough to call
	// after every Feed/Advance.
	DispatchStats() (dispatches, events int64)
	// FedInMergeOrder reports whether every Feed so far continued the
	// one-shot merge order: no Feed's first event sorted, by (ptime, scan
	// rank), before the last event fed. False once violated, and false for a
	// driver restored from a checkpoint, which does not record it.
	FedInMergeOrder() bool
}

var _ Driver = (*Pipeline)(nil)

// forEachMergedRuns merges the batch's per-source changelogs into one
// ptime-ordered delivery sequence — ties broken by scan registration order,
// the same tie-break the one-shot Run uses — and invokes deliver
// once per maximal run of consecutive events drawn from the same cursor,
// naming the run's source by its rank in scanOrder. Concatenating the
// delivered runs reproduces the per-event merge order
// exactly; the run grouping only changes the dispatch shape, letting callers
// hand contiguous log slices to the batch fast path. The delivered slice
// aliases the source log: callees must not retain or mutate it.
//
// Events with ptime beyond upTo are discarded. With requireAll set, every
// scanned source must appear in the batch (the Run contract); otherwise
// absent sources simply contribute no events.
func forEachMergedRuns(batch []Source, scanOrder []string, upTo types.Time, requireAll bool, deliver func(rank int, evs []tvr.Event) error) error {
	bySource := make(map[string]tvr.Changelog, len(batch))
	for _, s := range batch {
		bySource[lowered(s.Name)] = s.Log
	}
	type cursor struct {
		rank int
		log  tvr.Changelog
		pos  int
	}
	var cursors []*cursor
	for rank, name := range scanOrder {
		log, ok := bySource[name]
		if !ok {
			if requireAll {
				return fmt.Errorf("exec: no source data for relation %q", name)
			}
			continue
		}
		if upTo != types.MaxTime {
			// Discard the tail beyond the horizon up front: logs are
			// ptime-ordered, so everything from the first event past it goes.
			log = log[:sort.Search(len(log), func(i int) bool { return log[i].Ptime > upTo })]
		}
		cursors = append(cursors, &cursor{rank: rank, log: log})
	}
	if len(cursors) == 1 {
		// Single-source fast path: the whole batch is one run.
		c := cursors[0]
		if len(c.log) == 0 {
			return nil
		}
		return deliver(c.rank, c.log)
	}
	for {
		best := -1
		for i, c := range cursors {
			if c.pos >= len(c.log) {
				continue
			}
			if best < 0 || c.log[c.pos].Ptime < cursors[best].log[cursors[best].pos].Ptime {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		c := cursors[best]
		start := c.pos
		c.pos++
		// Extend the run while this cursor keeps winning the merge: its next
		// event must beat every other live cursor under the same
		// smallest-ptime, earliest-scan-order tie-break.
		for c.pos < len(c.log) {
			p := c.log[c.pos].Ptime
			wins := true
			for j, o := range cursors {
				if j == best || o.pos >= len(o.log) {
					continue
				}
				op := o.log[o.pos].Ptime
				if op < p || (op == p && j < best) {
					wins = false
					break
				}
			}
			if !wins {
				break
			}
			c.pos++
		}
		if err := deliver(c.rank, c.log[start:c.pos:c.pos]); err != nil {
			return err
		}
	}
}
