package live

import (
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// cursor is one subscriber's delivery state on a shared Session: its own
// bounded delta channel, slow-consumer policy, rendering mode, and counters.
// The session fans every rendered delta out to all attached cursors in
// attach order, each in its cursor's mode, so a cursor's delta sequence is
// exactly what a session of its own would have delivered — sharing changes
// ownership, not bytes.
type cursor struct {
	s      *Session
	policy Policy
	mode   Mode
	deltas chan Delta
	done   chan struct{} // closed by Cancel/Close to unblock a producer
	once   sync.Once     // guards close(done)

	// The fields below are guarded by the owning session's mu.
	parked   bool   // a producer is mid-send to this cursor (holding no mu)
	leaving  bool   // done closed mid-delivery; deltas fold into pending
	detached bool   // removed from the fan-out list; channel closed
	discard  bool   // Cancel: abandon pending instead of folding into it
	pending  *Delta // rendered but undelivered (interrupted by Close)

	// Counters are atomic so Stats/Err stay responsive while a
	// Block-policy delivery is parked on this (or any) cursor.
	err       atomic.Value // error; terminal, nil after a graceful Close
	deltasOut atomic.Int64
	rowsOut   atomic.Int64
}

// loadErr returns the cursor's terminal error, if any. Lock-free.
func (c *cursor) loadErr() error {
	if v := c.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// setErr records the first terminal error; later calls are no-ops.
func (c *cursor) setErr(err error) {
	if err != nil && c.loadErr() == nil {
		c.err.Store(err)
	}
}

// terminalErr is what a consumer-facing call reports once the cursor has
// ended: the cursor's own error, the session's, or plain ErrClosed.
func (c *cursor) terminalErr() error {
	if err := c.loadErr(); err != nil {
		return err
	}
	return c.s.terminalErr()
}

// noteDelivered advances the delivery counters for one delta.
func (c *cursor) noteDelivered(d *Delta) {
	rows := deltaRows(d)
	c.deltasOut.Add(1)
	c.rowsOut.Add(rows)
	c.s.obsm.noteDelivered(rows)
}

// deltaRows counts the output rows a delta carries.
func deltaRows(d *Delta) int64 {
	if d.Table != nil {
		return int64(len(d.Table.Inserted) + len(d.Table.Deleted))
	}
	return int64(len(d.Stream))
}

// stats snapshots the cursor's counters plus the shared pipeline's. It takes
// no locks, so it stays responsive while a delivery is blocked.
func (c *cursor) stats() Stats {
	s := c.s
	st := Stats{
		EventsIn:    s.eventsIn.Load(),
		DeltasOut:   c.deltasOut.Load(),
		RowsOut:     c.rowsOut.Load(),
		Watermark:   types.Time(s.wm.Load()),
		QueueDepth:  len(c.deltas),
		PipelineID:  int(s.id.Load()),
		Subscribers: int(s.nsubs.Load()),
		Shard:       s.shardIndex(),
		Dispatches:  s.dispatches.Load(),
	}
	if st.Dispatches > 0 {
		st.EventsPerDispatch = float64(s.dispatchedEvents.Load()) / float64(st.Dispatches)
	}
	return st
}

// waitUnparkedLocked waits until no producer is mid-send to this cursor.
// Callers have already closed c.done, so the wait is brief: the parked
// producer wakes on it immediately and clears the bit.
func (c *cursor) waitUnparkedLocked() {
	for c.parked {
		c.s.parkCond.Wait()
	}
}

// cancel terminates this cursor immediately: pending and future deliveries
// are abandoned, its channel closes, and Err reports ErrClosed unless a
// terminal error was already recorded. When it was the session's last
// cursor, the shared pipeline is torn down with it. Cancel never waits on a
// slow peer: it only synchronizes with a producer mid-send to THIS cursor,
// which the closed done channel releases at once.
func (c *cursor) cancel() {
	// Unblock a producer mid-delivery to this cursor before taking any
	// lock.
	c.once.Do(func() { close(c.done) })
	s := c.s
	s.mu.Lock()
	c.discard = true // Cancel abandons undelivered output by design
	c.pending = nil
	c.waitUnparkedLocked()
	if c.detached {
		s.mu.Unlock()
		return
	}
	c.setErr(ErrClosed)
	s.removeCursorLocked(c)
	last := s.everAttached && len(s.cursors) == 0 && !s.closed
	s.mu.Unlock()
	if !last {
		return
	}
	// Last subscriber gone: finish the driver. Serialize with the
	// producer side (an in-flight delivery could only have been parked on
	// this very cursor, and the closed done has already released it) and
	// re-check — a racing attach may have revived the session, or a
	// racing publish may have already closed it.
	s.ingestMu.Lock()
	s.mu.Lock()
	closedNow := false
	if !s.closed && len(s.cursors) == 0 {
		s.closeSessionLocked(ErrClosed)
		closedNow = true
	}
	s.mu.Unlock()
	s.ingestMu.Unlock()
	if closedNow {
		s.runTeardown()
	}
}

// closeGraceful finishes this cursor. A non-last cursor detaches from the
// shared pipeline, returning any delivery that was interrupted by the close
// (the pipeline lives on for its peers). The last cursor completes the
// pipeline input — bounded relations close, pending EMIT timers flush — and
// returns the emissions those completions produce, folded together with any
// interrupted delivery so the sequence stays gapless. The final delta is
// returned rather than channeled so a subscriber that has stopped draining
// cannot deadlock its own close.
func (c *cursor) closeGraceful() (*Delta, error) {
	// Unblock a delivery already waiting on this (no longer drained)
	// channel; the interrupted producer folds the delta into pending.
	c.once.Do(func() { close(c.done) })
	s := c.s
	// Sharded mode: wait for the session's shard to apply every commit
	// acknowledged before this close, so those deliveries land in the
	// buffer (or fold into pending via the closed done) and the final
	// delta misses nothing the engine already acked as durable. Holds no
	// locks — the shard worker needs ingestMu/mu to make progress.
	s.drainShard()
	s.mu.Lock()
	c.waitUnparkedLocked()
	if c.detached {
		s.mu.Unlock()
		return nil, c.terminalErr()
	}
	if len(s.cursors) > 1 || s.closed {
		// Peers remain (or the session already ended): detach without
		// touching the shared driver.
		final := c.pending
		c.pending = nil
		s.removeCursorLocked(c)
		if final != nil {
			c.noteDelivered(final)
		}
		closedNow := s.closed
		s.mu.Unlock()
		if closedNow {
			return final, c.terminalErr()
		}
		return final, nil
	}
	// Last subscriber: the standing query finishes with it. Marking the
	// session closed stops new ingest; the teardown stops the manager
	// from routing (waiting out any in-flight publish, which the closed
	// done channel has already released from a park on this cursor).
	s.closed = true
	s.mu.Unlock()
	s.runTeardown()

	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.driver.Close(); err != nil {
		s.setErr(err)
		c.setErr(err)
		s.removeCursorLocked(c)
		return nil, err
	}
	final := c.pending
	if d := s.renderLocked(); d != nil {
		v := d.as(c.mode)
		final = mergeDeltas(c.mode, final, &v)
	}
	c.pending = nil
	if final != nil {
		c.noteDelivered(final)
	}
	s.removeCursorLocked(c)
	return final, nil
}
