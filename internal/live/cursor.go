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
	// takes it. The reader sends on it, and so does a commit, under the
	// session's mu, while the reader is idle (notifyLocked). The reader
	// closes it on exit; by then the cursor is stopped or detached, and no
	// commit sends to it again.
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

// advanceLocked moves the cursor past a piece it has received as d.
func (c *cursor) advanceLocked(p piece, d *Delta) {
	c.next = p.next
	if d.Table != nil {
		rows := int64(len(d.Table.Inserted) + len(d.Table.Deleted))
		c.rowsOut.Add(rows)
		c.s.obsm.noteDelivered(0, rows)
	}
	c.s.trimLocked()
}

// run is the cursor's reader: it sends each unread piece as one delta until
// the cursor stops, or the session has closed and nothing is left unread.
func (c *cursor) run() {
	defer close(c.exited)
	defer close(c.deltas)
	s := c.s
	for {
		s.mu.Lock()
		p, ok := s.out.pending(c.position)
		c.idle = !ok
		done := c.stopped || !ok && s.closed
		s.mu.Unlock()
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
			s.mu.Lock()
			c.advanceLocked(p, &d)
			s.mu.Unlock()
		case <-c.stop:
			return
		}
	}
}

// notifyLocked tells the cursor that output was appended. A busy reader
// finds it by itself. An idle stream cursor whose consumer already waits on
// the channel is handed the delivery by the commit, in a send that cannot
// block, which spares the reader a wake-up on the delivery's way to the
// consumer; otherwise the reader is woken.
func (c *cursor) notifyLocked() {
	if c.stopped || !c.idle {
		return
	}
	if p, ok := c.s.out.pending(c.position); ok && c.mode == Stream {
		d := p.delta(Stream)
		select {
		case c.deltas <- d:
			c.advanceLocked(p, &d)
			return
		default:
		}
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

// unreadLocked renders everything the cursor has not received as one delta
// (nil when there is nothing): the rows in order for a stream cursor, their
// net change for a table cursor, and the watermark of the last of them. It
// moves the cursor to the end. The reader must have exited.
func (c *cursor) unreadLocked() *Delta {
	p, ok := c.s.out.unread(c.position)
	if !ok {
		return nil
	}
	d := p.delta(c.mode)
	c.advanceLocked(p, &d)
	return &d
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
		defer s.mu.Unlock()
		if err := s.driver.Close(); err != nil {
			s.setErr(err)
			c.setErr(err)
			s.removeCursorLocked(c)
			return nil, err
		}
		s.appendOutputLocked(nil)
		final := c.unreadLocked()
		s.removeCursorLocked(c)
		return final, nil
	}
	// Peers remain (or the session already ended): detach without touching
	// the shared driver.
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.detached {
		return nil, c.terminalErr()
	}
	final := c.unreadLocked()
	s.removeCursorLocked(c)
	if s.closed {
		return final, c.terminalErr()
	}
	return final, nil
}
