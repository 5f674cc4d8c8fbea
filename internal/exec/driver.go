package exec

import (
	"fmt"

	"repro/internal/tvr"
	"repro/internal/types"
)

// Driver is the incremental execution lifecycle a standing query runs on.
// Pipeline is its implementation; the interface lets the standing-query
// layer's tests substitute a fake. A driver is compiled once and then kept
// resident: Start opens the operators, Feed pushes batches of new source
// events through the same deterministic k-way ptime merge the one-shot Run
// uses, Advance moves the processing-time clock (firing EMIT AFTER DELAY
// timers), and Close completes the input. Each stages the output it
// materializes in the driver's output log (Output), which its caller
// publishes and retains: the primitive the standing-query subsystem
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
	// Close signals end-of-input; what that materializes is staged like
	// any output.
	Close() error
	// Output is the log the driver stages its output events in, in
	// emission order (tvr.Log.Stage), from the goroutine that drives it.
	// The caller publishes, reads and trims it under a lock of its own (see
	// the package doc); the driver writes only past its published end.
	Output() *tvr.Log[tvr.Event]
	// OutputWatermark is the output relation's current watermark.
	OutputWatermark() types.Time
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
// once per maximal run of consecutive events drawn from the same cursor and
// the same chunk of its source, naming the run's source by its rank in
// scanOrder. Concatenating the delivered runs reproduces the per-event merge
// order exactly; the run grouping only changes the dispatch shape, letting
// callers hand contiguous log slices to the batch fast path. A source held
// as a captured tvr.Log range is walked chunk by chunk, never copied. The
// delivered slice aliases the source log: callees must not retain or mutate
// it.
//
// Events with ptime beyond upTo are discarded. With requireAll set, every
// scanned source must appear in the batch (the Run contract); otherwise
// absent sources simply contribute no events.
func forEachMergedRuns(batch []Source, scanOrder []string, upTo types.Time, requireAll bool, deliver func(rank int, evs []tvr.Event) error) error {
	bySource := make(map[string]tvr.Range[tvr.Event], len(batch))
	for _, s := range batch {
		bySource[lowered(s.Name)] = s.events()
	}
	var cursors []*mergeCursor
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
			log = tvr.Cut(log, upTo)
		}
		c := &mergeCursor{rank: rank}
		c.log, c.rest = log.Next()
		cursors = append(cursors, c)
	}
	if len(cursors) == 1 {
		// Single-source fast path: each chunk is one run.
		c := cursors[0]
		for c.pos < len(c.log) {
			if err := deliver(c.rank, c.log); err != nil {
				return err
			}
			c.pos = len(c.log)
			c.refill()
		}
		return nil
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
		// Extend the run, within the cursor's chunk, while this cursor keeps
		// winning the merge: its next event must beat every other live
		// cursor under the same smallest-ptime, earliest-scan-order
		// tie-break.
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
		c.refill()
	}
}

// mergeCursor is one source's place in the merge: pos in its current chunk,
// log, and the chunks after it. A cursor whose pos has reached the end of
// log has no event left: refill runs after every run that could use a chunk
// up.
type mergeCursor struct {
	rank int
	log  []tvr.Event
	pos  int
	rest tvr.Range[tvr.Event]
}

// refill moves the cursor to its next chunk once the current one is used up.
func (c *mergeCursor) refill() {
	if c.pos == len(c.log) && c.rest.Len() > 0 {
		c.log, c.rest = c.rest.Next()
		c.pos = 0
	}
}
