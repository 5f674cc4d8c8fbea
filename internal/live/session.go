package live

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/types"
)

// Config describes a standing query to NewSession.
type Config struct {
	// Name labels the session for diagnostics (typically the SQL text).
	Name string
	// Schema is the output schema of the compiled plan.
	Schema *types.Schema
	// EmitKeys are the event-time grouping columns used for stream-
	// rendering version numbers (plan.PlannedQuery.EmitKeyIdxs).
	EmitKeys []int
	// Sources are the relation names the plan scans (the session only
	// accepts events for these).
	Sources []string
	// MaxRetainedRows caps the output-changelog rows the session retains
	// for late attach and resident reads. 0 means unbounded: the session
	// keeps all of its output. Past the cap the session serves neither
	// (Attach fails with ErrRetainedOverflow, and Manager.Subscribe builds a
	// successor) and keeps only the rows some cursor has not yet read.
	MaxRetainedRows int
}

// Session is the engine-facing half of a standing query: it owns a started
// exec.Driver and appends its output to a retained log that any number of
// subscriber cursors read (Attach), each at its own pace and in its own
// mode. The session tears down when the last cursor departs, or immediately
// on a pipeline error.
//
// A session is safe for concurrent use. Two locks split the work: ingestMu
// serializes driver access (Feed/Advance/Close and Drain), while mu guards
// the cursors and the retained output. A commit holds mu only to append, so
// readers, Attach, Stats and resident reads wait at most for an append,
// never for a running feed. Lock order: ingestMu before mu; neither is held
// while acquiring the manager lock (runTeardown).
type Session struct {
	cfg     Config
	driver  exec.Driver
	sources map[string]bool
	key     string // plan key, set by the manager when the session takes it

	// ingestMu serializes driver access and keeps deliveries in order.
	ingestMu sync.Mutex

	mu      sync.Mutex
	closed  bool      // no further input accepted
	cursors []*cursor // attach order
	out     output    // the retained output every cursor and read uses

	// Observability state lives outside s.mu so Err and the manager's
	// gauges read it lock-free.
	err      atomic.Value // error; terminal, nil after a graceful Close
	eventsIn atomic.Int64
	wm       atomic.Int64 // types.Time
	nsubs    atomic.Int64 // len(cursors)
	id       atomic.Int64 // registration (pipeline) id, set by the manager
	// Batched-execution observability, mirrored from the driver's
	// exec.Stats after every feed so lock-free Stats readers see them
	// without touching the driver.
	dispatches       atomic.Int64
	dispatchedEvents atomic.Int64
	// outOfOrder mirrors !driver.FedInMergeOrder() the same way, before the
	// feed's output is retained, so a read never serves output of an
	// out-of-order feed.
	outOfOrder atomic.Bool

	teardown     func() // unregisters from the owning manager
	teardownOnce sync.Once

	// Sharded-mode placement, set by the manager at registration. drain
	// blocks until the session's shard has applied every commit enqueued so
	// far — the barrier a graceful close uses so acknowledged commits reach
	// the final delta. Both are nil/-1 under the serial fan-out.
	drain func()
	shard atomic.Int64 // shard index; -1 = serial fan-out

	// obsm is the owning manager's delivery counters (nil without
	// observability; all increments are nil-safe). Set at registration,
	// under the manager's ordering lock, before any routing.
	obsm *liveMetrics
}

// NewSession starts the driver and wraps it as a standing query with no
// subscribers yet; Attach adds them.
func NewSession(d exec.Driver, cfg Config) (*Session, error) {
	if err := d.Start(); err != nil {
		return nil, err
	}
	return newSession(d, cfg), nil
}

// newSession wraps an already started driver (see restoreSessionLocked).
func newSession(d exec.Driver, cfg Config) *Session {
	s := &Session{
		cfg:     cfg,
		driver:  d,
		sources: make(map[string]bool, len(cfg.Sources)),
		out:     newOutput(cfg.EmitKeys, cfg.MaxRetainedRows),
	}
	s.shard.Store(-1)
	s.wm.Store(int64(types.MinTime))
	for _, name := range cfg.Sources {
		s.sources[strings.ToLower(name)] = true
	}
	d0, ev0 := d.DispatchStats()
	s.dispatches.Store(d0)
	s.dispatchedEvents.Store(ev0)
	return s
}

// SetTeardown installs the hook run when the session leaves its manager.
func (s *Session) SetTeardown(fn func()) { s.teardown = fn }

// setID records the manager-assigned pipeline id.
func (s *Session) setID(id int) { s.id.Store(int64(id)) }

// setShard records the session's permanent shard placement.
func (s *Session) setShard(sh int) { s.shard.Store(int64(sh)) }

// shardIndex reports the session's shard (-1 = serial fan-out). Lock-free.
func (s *Session) shardIndex() int { return int(s.shard.Load()) }

// setDrain installs the shard drain barrier (see the drain field). Called by
// the manager at registration, before any sharded fan-out can reach the
// session.
func (s *Session) setDrain(fn func()) { s.drain = fn }

// drainShard waits out the session's shard queue (a no-op under the serial
// fan-out). Must be called without holding s.mu or ingestMu: the shard
// worker takes both to apply deliveries.
func (s *Session) drainShard() {
	if s.drain != nil {
		s.drain()
	}
}

// Matches reports whether the standing query scans the named relation.
func (s *Session) Matches(name string) bool { return s.sources[strings.ToLower(name)] }

// loadErr returns the recorded terminal error, if any. Writes happen under
// s.mu; reads are lock-free.
func (s *Session) loadErr() error {
	if v := s.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// setErr records the first terminal session error; later calls are no-ops.
func (s *Session) setErr(err error) {
	if err != nil && s.loadErr() == nil {
		s.err.Store(err)
	}
}

// terminalErr is the error a producer-facing call reports once the session
// is closed. It reads only atomic state, so callers need not hold s.mu.
func (s *Session) terminalErr() error {
	if err := s.loadErr(); err != nil {
		return err
	}
	return ErrClosed
}

// Subscribers reports the number of attached cursors. Lock-free.
func (s *Session) Subscribers() int { return int(s.nsubs.Load()) }

// Attach adds a subscriber cursor in opts.Mode and returns its
// consumer-facing handle. When the pipeline has already produced output,
// the cursor's first delta is all of it (the hand-off): for a table cursor
// the consolidated diff reconstructing the current snapshot, for a stream
// cursor every row at the version it was rendered with. That is
// byte-identical to the history-replay delta a fresh pipeline opened at the
// same instant would deliver. Every later delivery follows as its own delta.
func (s *Session) Attach(opts CursorOpts) (*Subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.terminalErr()
	}
	if s.out.overflowed {
		return nil, fmt.Errorf("live: session %q: %w", s.cfg.Name, ErrRetainedOverflow)
	}
	c := &cursor{
		s:        s,
		mode:     opts.Mode,
		deltas:   make(chan Delta),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		exited:   make(chan struct{}),
		position: s.out.attach(types.Time(s.wm.Load())),
	}
	if p, ok := s.out.pending(c.position); ok {
		c.noteOwed(len(p.log))
	}
	s.cursors = append(s.cursors, c)
	s.nsubs.Store(int64(len(s.cursors)))
	go c.run()
	return &Subscription{c: c}, nil
}

// removeCursorLocked detaches a cursor from the session. It records no
// error — callers set one first when the detach is not graceful — and
// leaves the cursor's reader to its stop or the session's close.
func (s *Session) removeCursorLocked(c *cursor) {
	if c.detached {
		return
	}
	c.detached = true
	for i, cc := range s.cursors {
		if cc == c {
			s.cursors = append(s.cursors[:i], s.cursors[i+1:]...)
			break
		}
	}
	s.nsubs.Store(int64(len(s.cursors)))
	s.trimLocked()
}

// closeSessionLocked ends the session: the terminal error is recorded,
// every remaining cursor is detached with it — its reader still sends what
// was appended, then closes the channel — and the driver is completed
// (errors irrelevant on a failing session). Callers hold s.mu AND ingestMu
// (driver access). Cursor-detach-path callers must run runTeardown
// afterwards, without holding any lock; the ingest path instead returns the
// error to the manager, which removes the session itself.
func (s *Session) closeSessionLocked(err error) {
	s.setErr(err)
	wasOpen := !s.closed
	s.closed = true
	s.out.fold = nil
	for len(s.cursors) > 0 {
		c := s.cursors[0]
		c.setErr(err)
		c.notifyLocked() // an idle reader sees the close
		s.removeCursorLocked(c)
	}
	if wasOpen {
		// A driver being closed *because* it panicked may well panic
		// again out of its half-unwound operator state; the session is
		// already terminal either way.
		func() {
			defer func() { recover() }() //nolint:errcheck
			s.driver.Close()             //nolint:errcheck
		}()
	}
}

// IngestLog feeds a batch of per-source events (merged deterministically by
// the driver) and delivers the batch's deltas in one delivery. Subscribing
// uses it to replay a relation's recorded history through the new pipeline.
func (s *Session) IngestLog(batch []exec.Source) error {
	return s.ingestLog(batch, nil)
}

// ingestLog is IngestLog carrying the commit-path span (see step).
func (s *Session) ingestLog(batch []exec.Source, span *obs.CommitSpan) error {
	return s.step(span, func() error {
		n := int64(0)
		for _, src := range batch {
			n += int64(len(src.Log))
		}
		s.eventsIn.Add(n)
		s.obsm.noteEventsIn(n)
		return s.driver.Feed(batch)
	})
}

// Advance moves the standing pipeline's processing-time clock to pt, firing
// any due EMIT AFTER DELAY timers and delivering the resulting deltas.
func (s *Session) Advance(pt types.Time) error {
	return s.advance(pt, nil)
}

// advance is Advance carrying the commit-path span (see step).
func (s *Session) advance(pt types.Time, span *obs.CommitSpan) error {
	return s.step(span, func() error { return s.driver.Advance(pt) })
}

// step makes one driver call, a feed or an advance, unless the session has
// closed, and delivers its output as one delivery. The call's time accrues
// to the span's apply stage, and appendOutputLocked splits render from
// deliver; the untraced path skips the span's time.Now calls entirely.
//
// step is the operator panic boundary: a panic in a standing pipeline (its
// operators run on the ingesting goroutine or a shard worker) becomes this
// session's terminal error — subscribers observe it through Err() with the
// panic value and stack — instead of unwinding the committing goroutine or
// a shard worker and killing the process. The driver holds only this
// session's state, so abandoning it mid-panic corrupts nothing shared.
func (s *Session) step(span *obs.CommitSpan, call func() error) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return s.terminalErr()
	}
	tApply := time.Time{}
	if span != nil {
		tApply = time.Now()
	}
	err := func() (err error) {
		defer func() {
			if perr := exec.CapturePanic(recover()); perr != nil {
				err = perr
			}
		}()
		return call()
	}()
	span.AddSince(obs.SpanApply, tApply)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.closeSessionLocked(err)
		return err
	}
	s.mirrorDriver()
	s.appendOutputLocked(span)
	return nil
}

// mirrorDriver copies the driver's dispatch counters and merge-order bit into
// the session's atomics, and adds the dispatches since the last feed to the
// manager's counters. Caller holds ingestMu, so the driver is quiescent.
func (s *Session) mirrorDriver() {
	d, ev := s.driver.DispatchStats()
	s.obsm.noteDispatched(d-s.dispatches.Swap(d), ev-s.dispatchedEvents.Swap(ev))
	s.outOfOrder.Store(!s.driver.FedInMergeOrder())
}

// appendOutputLocked drains the driver's new output and appends it as one
// delivery: the rows, their stream versions (the renderer's counters must
// see every row, whatever the cursors' modes), and the output watermark.
// Each attached cursor is owed one delta more. Nothing is appended when
// nothing materialized. Caller holds ingestMu (driver access) and s.mu.
func (s *Session) appendOutputLocked(span *obs.CommitSpan) {
	tRender := time.Time{}
	if span != nil {
		tRender = time.Now()
	}
	out := s.driver.Drain()
	wm := s.driver.OutputWatermark()
	s.wm.Store(int64(wm))
	s.out.append(out, wm)
	span.AddSince(obs.SpanRender, tRender)
	if len(out) == 0 {
		return
	}
	tDeliver := time.Time{}
	if span != nil {
		tDeliver = time.Now()
	}
	for _, c := range s.cursors {
		c.noteOwed(len(out))
		c.notifyLocked()
	}
	s.trimLocked()
	span.AddSince(obs.SpanDeliver, tDeliver)
}

// trimLocked lets the retained output drop, past its cap, what every attached
// cursor has received. A closed session keeps what it has for its detached
// readers.
func (s *Session) trimLocked() {
	if s.closed {
		return
	}
	low := s.out.end()
	for _, c := range s.cursors {
		low = min(low, c.next)
	}
	s.out.trim(low)
}

// runTeardown unregisters the session from its manager exactly once. It must
// be called without holding s.mu or ingestMu: the manager routes events
// while holding its own lock and then calls into the session, so taking the
// locks in the opposite order here would deadlock.
func (s *Session) runTeardown() {
	s.teardownOnce.Do(func() {
		if s.teardown != nil {
			s.teardown()
		}
	})
}

// cancel tears the whole session down immediately: every cursor terminates
// (Err reporting ErrClosed unless a terminal error was already recorded)
// and the driver is completed. The manager uses it to release a session
// whose registration failed partway, before any cursor attached.
func (s *Session) cancel() {
	s.ingestMu.Lock()
	s.mu.Lock()
	s.closeSessionLocked(ErrClosed)
	s.mu.Unlock()
	s.ingestMu.Unlock()
	s.runTeardown()
}

// String renders a one-line diagnostic summary of the shared pipeline.
func (s *Session) String() string {
	return fmt.Sprintf("live [%s] id=%d subs=%d in=%d wm=%s",
		s.cfg.Name, s.id.Load(), s.nsubs.Load(), s.eventsIn.Load(),
		types.Time(s.wm.Load()))
}
