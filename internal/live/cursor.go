package live

import (
	"sync/atomic"

	"repro/internal/types"
)

// cursor is one subscriber's position in its session's retained output, in
// the subscriber's rendering mode. Its reader goroutine sends the output
// from that position on, one delta per delivery, at the consumer's pace;
// the session appends deliveries and never waits on a reader. A cursor
// starts at the first delivery, and the deliveries appended before it
// attached reach it as one first delta (the hand-off). Either way its delta
// sequence is exactly what a session of its own would have delivered —
// sharing changes ownership, not bytes.
type cursor struct {
	s    *Session
	mode Mode
	// deltas is unbuffered, so a delta is in flight only while the consumer
	// takes it. Only the reader sends on it, and closes it on exit.
	deltas chan Delta
	wake   chan struct{} // capacity 1: output appended while the reader was idle
	stop   chan struct{} // closed once stopped is set, to abandon a send or a wait
	exited chan struct{} // closed by the reader after it closes deltas

	// The fields below are guarded by the owning session's mu.
	position      // in the session's retained output
	idle     bool // the reader has read everything and waits on wake
	stopped  bool // Cancel or Close: the reader sends nothing more
	detached bool // removed from the session's cursor list

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

// noteOwed counts one delta owed to the cursor and, for a stream cursor, its
// rows; a table cursor's rows are counted when its reader consolidates them.
func (c *cursor) noteOwed(rows int) {
	if c.mode == Table {
		rows = 0
	}
	c.deltasOut.Add(1)
	c.rowsOut.Add(int64(rows))
	c.s.obsm.noteDelivered(1, int64(rows))
}

// received counts the rows of a table delta its consumer has taken; a
// stream delta's rows were counted when they were owed.
func (c *cursor) received(d *Delta) {
	if d.Table != nil {
		rows := int64(len(d.Table.Inserted) + len(d.Table.Deleted))
		c.rowsOut.Add(rows)
		c.s.obsm.noteDelivered(0, rows)
	}
}

// run is the cursor's reader: it sends each unread piece as one delta until
// the cursor stops, or the session has closed and nothing is left unread. A
// stream cursor's reader versions each piece before it sends it (capture).
func (c *cursor) run() {
	defer close(c.exited)
	defer close(c.deltas)
	s := c.s
	for {
		done := false
		p, ok := s.capture(c.mode, func() (piece, bool) {
			p, ok := s.out.pending(c.position)
			c.idle = !ok
			done = c.stopped || !ok && s.closed
			return p, ok && !done
		})
		if done {
			return
		}
		if !ok {
			select {
			case <-c.wake:
			case <-c.stop:
				return
			}
			continue
		}
		d := p.delta(c.mode)
		select {
		case c.deltas <- d:
			c.received(&d)
			s.mu.Lock()
			c.next = p.next
			behind := s.trimLocked()
			s.mu.Unlock()
			if behind {
				s.trimPastCap()
			}
		case <-c.stop:
			return
		}
	}
}

// wakeLocked tells the cursor that output was appended, or that the session
// closed: an idle reader is woken, and a busy one finds it by itself.
func (c *cursor) wakeLocked() {
	if c.stopped || !c.idle {
		return
	}
	c.idle = false
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// halt stops the reader and waits for it to exit, so the cursor's position
// is final and its channel closed.
func (c *cursor) halt() {
	s := c.s
	s.mu.Lock()
	if !c.stopped {
		c.stopped = true
		close(c.stop)
	}
	s.mu.Unlock()
	<-c.exited
}

// leave detaches the cursor and renders everything it had not received as
// one delta (nil when there is nothing): the rows in order for a stream
// cursor, their net change for a table cursor, and the watermark of the
// last of them. It reports whether the cursor had detached already, and
// then takes nothing, and whether the session had closed. The reader must
// have exited.
func (c *cursor) leave() (final *Delta, detached, closed bool) {
	s := c.s
	p, ok := s.capture(c.mode, func() (piece, bool) {
		if detached, closed = c.detached, s.closed; detached {
			return piece{}, false
		}
		p, ok := s.out.unread(c.position)
		if ok {
			c.next = p.next
		}
		s.removeCursorLocked(c)
		return p, ok
	})
	if !ok {
		return nil, detached, closed
	}
	d := p.delta(c.mode)
	c.received(&d)
	return &d, detached, closed
}

// queueDepthLocked counts the deltas the consumer has not yet received.
func (c *cursor) queueDepthLocked() int {
	if c.stopped {
		return 0
	}
	return c.s.out.depth(c.position)
}

// stats snapshots the cursor's counters plus the shared pipeline's.
func (c *cursor) stats() Stats {
	s := c.s
	s.mu.Lock()
	depth := c.queueDepthLocked()
	s.mu.Unlock()
	st := Stats{
		EventsIn:    s.eventsIn.Load(),
		DeltasOut:   c.deltasOut.Load(),
		RowsOut:     c.rowsOut.Load(),
		Watermark:   types.Time(s.wm.Load()),
		Unread:      depth,
		PipelineID:  int(s.id.Load()),
		Subscribers: int(s.nsubs.Load()),
		Dispatches:  s.dispatches.Load(),
	}
	if st.Dispatches > 0 {
		st.EventsPerDispatch = float64(s.dispatchedEvents.Load()) / float64(st.Dispatches)
	}
	return st
}

// cancel terminates this cursor immediately: unread output is abandoned, its
// channel closes, and Err reports ErrClosed unless a terminal error was
// already recorded. When it was the session's last cursor, the shared
// pipeline ends with it.
func (c *cursor) cancel() {
	c.halt()
	s := c.s
	s.mu.Lock()
	if c.detached {
		s.mu.Unlock()
		return
	}
	c.setErr(ErrClosed)
	s.removeCursorLocked(c)
	last := len(s.cursors) == 0 && !s.closed
	s.mu.Unlock()
	if last && s.retire(nil) {
		s.mu.Lock()
		s.closeSessionLocked(ErrClosed)
		s.mu.Unlock()
	}
}

// closeGraceful finishes this cursor and returns, as one final delta, every
// delivery its consumer had not yet received. A non-last cursor detaches
// from the shared pipeline, which lives on for its peers. The last cursor
// first completes the pipeline input — bounded relations close, pending EMIT
// timers flush — and the emissions that produces follow the unread output
// in the final delta, so the sequence stays gapless. The final delta is
// returned rather than channeled so a subscriber that has stopped draining
// cannot deadlock its own close.
func (c *cursor) closeGraceful() (*Delta, error) {
	s := c.s
	c.halt()
	s.mu.Lock()
	last := !c.detached && !s.closed && len(s.cursors) == 1
	s.mu.Unlock()
	if last && s.retire(c) {
		// The session is closed and out of the routing table, so this
		// goroutine alone drives it: complete the input and hand the
		// close-time output over after the unread deliveries.
		s.mu.Lock()
		err := s.driver.Close()
		if err != nil {
			s.setErr(err)
			c.setErr(err)
			s.removeCursorLocked(c)
		} else {
			s.appendOutputLocked(nil)
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		final, _, _ := c.leave()
		return final, nil
	}
	// Peers remain (or the session already ended): detach without touching
	// the shared driver.
	final, detached, closed := c.leave()
	if detached {
		return nil, c.terminalErr()
	}
	if closed {
		return final, c.terminalErr()
	}
	return final, nil
}
