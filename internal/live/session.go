package live

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tvr"
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
	// MaxRetainedRows bounds the late-attach retention: the output-changelog
	// rows the session keeps so late subscribers of either mode can receive
	// a snapshot hand-off. 0 means unbounded. On overflow the retained log
	// is released — memory stays bounded — and subsequent Attach calls
	// fail with ErrRetainedOverflow instead of handing off an incomplete
	// snapshot.
	MaxRetainedRows int
}

// Session is the engine-facing half of a standing query: it owns a started
// exec.Driver and converts ingested source events into subscriber deltas.
// One session serves any number of subscribers — the consumer-facing half is
// the per-subscriber cursor created by Attach — and every rendered delta is
// fanned out to all attached cursors in attach order, each in its own mode.
// The session retains its cumulative output changelog so a cursor attaching
// late receives a snapshot hand-off first (see Attach); it tears down when
// the last cursor departs, or immediately on a pipeline error.
//
// A session is safe for concurrent use. Two locks split the work: ingestMu
// serializes the producer side (driver access: Feed/Advance/Close and
// Drain), while mu guards the cursor list, channel state, and the retained
// output. A Block-policy delivery parks on a full cursor holding ONLY
// ingestMu, never mu, so cursor-level operations (Attach under the manager's
// lock, Cancel, Close, Stats) stay responsive while a slow subscriber
// exerts backpressure. Lock order: ingestMu before mu; neither is held while
// acquiring the manager lock (runTeardown).
type Session struct {
	cfg      Config
	driver   exec.Driver
	renderer *tvr.StreamRenderer
	sources  map[string]bool

	// ingestMu serializes driver access and keeps deliveries in order.
	ingestMu sync.Mutex

	mu           sync.Mutex
	parkCond     *sync.Cond // broadcast whenever a cursor's parked bit clears
	closed       bool       // no further input accepted
	cursors      []*cursor  // attach order — also the fan-out order
	everAttached bool
	produced     bool // the pipeline has drained output at least once
	// The late-attach snapshot state: the cumulative output changelog,
	// from which both hand-offs derive (the stream rendering needs every
	// row's version history; same retention posture as the engine's
	// recorded relation changelogs). Dropped on sessions that can never
	// see a late attach (see DropRetainedOutput).
	outLog     tvr.Changelog
	noRetain   bool
	overflowed bool // retention exceeded cfg.MaxRetainedRows and was released

	// Observability state lives outside s.mu so Stats and Err stay
	// responsive while a Block-policy delivery is parked on a full
	// cursor.
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
	// feed's output reaches outLog, so retainedOutput never serves output of
	// an out-of-order feed.
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
		cfg:      cfg,
		driver:   d,
		renderer: tvr.NewStreamRenderer(cfg.EmitKeys),
		sources:  make(map[string]bool, len(cfg.Sources)),
	}
	s.parkCond = sync.NewCond(&s.mu)
	s.shard.Store(-1)
	s.wm.Store(int64(types.MinTime))
	for _, name := range cfg.Sources {
		s.sources[strings.ToLower(name)] = true
	}
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
// s.mu; reads are lock-free so Err stays responsive during a parked
// delivery.
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

// DropRetainedOutput releases the cumulative output changelog and stops
// retaining future output. The manager calls it on sessions that can never
// see a late attach (exclusive subscriptions), where the retention would be
// dead weight; afterwards Attach refuses rather than hand off an incomplete
// snapshot.
func (s *Session) DropRetainedOutput() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noRetain = true
	s.outLog = nil
}

// retainedOutput returns the cumulative output changelog of an open session
// whose driver has only been fed in merge order, capped so later appends
// never show through; otherwise replay names why not (see the read contract
// in the package documentation). It takes only s.mu, so a Block-policy
// delivery parked on a full cursor cannot stall it.
func (s *Session) retainedOutput() (log tvr.Changelog, replay string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The bit is read after s.mu is taken: a feed stores it before its
	// delivery appends to outLog under s.mu, so output of an out-of-order
	// feed is never handed out.
	switch {
	case s.closed:
		return nil, ReplayClosed
	case s.outOfOrder.Load():
		return nil, ReplayOutOfOrder
	case s.noRetain || s.overflowed:
		return nil, ReplayOverflow
	}
	return s.outLog[:len(s.outLog):len(s.outLog)], ""
}

// releaseRetainedLocked drops the late-attach retention after it outgrew the
// configured cap: memory stays bounded by the cap, and Attach degrades to
// ErrRetainedOverflow instead of handing off an incomplete snapshot.
// Existing cursors are untouched — their deltas were already delivered.
func (s *Session) releaseRetainedLocked() {
	s.overflowed = true
	s.outLog = nil
}

// Attach adds a subscriber cursor in opts.Mode and returns its
// consumer-facing handle. When the pipeline has already produced output, the
// cursor's first delta is a snapshot hand-off synthesized from the retained
// output changelog: for a table cursor the consolidated diff reconstructing
// the current snapshot, for a stream cursor the full stream rendering
// (re-rendered from the log, so its version numbers match the ones already
// delivered to earlier subscribers and new rows continue from the current
// counters). That is byte-identical to the history-replay delta a dedicated
// subscription opened at the same instant would receive. The caller must
// guarantee no publish runs concurrently (the manager attaches under its
// ordering lock).
func (s *Session) Attach(opts CursorOpts) (*Subscription, error) {
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, s.terminalErr()
	}
	if s.overflowed {
		return nil, fmt.Errorf("live: session %q: %w", s.cfg.Name, ErrRetainedOverflow)
	}
	if s.noRetain {
		return nil, fmt.Errorf("live: session %q does not retain output for late attach", s.cfg.Name)
	}
	c := &cursor{
		s:      s,
		policy: opts.Policy,
		mode:   opts.Mode,
		deltas: make(chan Delta, opts.Buffer),
		done:   make(chan struct{}),
	}
	if d := s.snapshotDeltaLocked(opts.Mode); d != nil {
		c.deltas <- *d // fresh channel, capacity >= 1: never blocks
		c.noteDelivered(d)
	}
	s.cursors = append(s.cursors, c)
	s.everAttached = true
	s.nsubs.Store(int64(len(s.cursors)))
	return &Subscription{c: c}, nil
}

// snapshotDeltaLocked synthesizes a mode cursor's late-attach initial delta
// from the retained output: exactly what replaying the full history through
// a dedicated pipeline would have delivered as its first delta. Nil when the
// pipeline has produced no output yet.
func (s *Session) snapshotDeltaLocked(mode Mode) *Delta {
	if !s.produced {
		return nil
	}
	d := Delta{Watermark: types.Time(s.wm.Load())}
	if mode == Table {
		d.Table = consolidate(s.outLog)
	} else {
		d.Stream = tvr.RenderStream(s.outLog, s.cfg.EmitKeys)
	}
	return &d
}

// removeCursorLocked detaches a cursor from the fan-out list and closes its
// channel. It records no error — callers set one first when the detach is
// not graceful. The cursor must not be parked (no producer may be mid-send
// to it): callers wait out c.parked first.
func (s *Session) removeCursorLocked(c *cursor) {
	if c.detached {
		return
	}
	c.detached = true
	c.once.Do(func() { close(c.done) })
	close(c.deltas)
	for i, cc := range s.cursors {
		if cc == c {
			s.cursors = append(s.cursors[:i], s.cursors[i+1:]...)
			break
		}
	}
	s.nsubs.Store(int64(len(s.cursors)))
}

// closeSessionLocked ends the session: the terminal error is recorded, every
// remaining cursor is dropped with it, and the driver is completed (errors
// irrelevant on a failing session). Callers hold s.mu AND ingestMu (driver access),
// with no cursor parked. Cursor-detach-path callers must run runTeardown
// afterwards, without holding any lock; the ingest path instead returns the
// error to the manager, which removes the session itself.
func (s *Session) closeSessionLocked(err error) {
	s.setErr(err)
	for len(s.cursors) > 0 {
		c := s.cursors[0]
		c.setErr(err)
		s.removeCursorLocked(c)
	}
	if !s.closed {
		s.closed = true
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

// ingestLog is IngestLog carrying the commit-path span: driver feed time
// accrues to the apply stage, render/deliver split inside deliver. The
// span's time.Now calls are skipped entirely on the untraced path.
func (s *Session) ingestLog(batch []exec.Source, span *obs.CommitSpan) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.isClosed() {
		return s.terminalErr()
	}
	n := int64(0)
	for _, src := range batch {
		n += int64(len(src.Log))
	}
	s.eventsIn.Add(n)
	s.obsm.noteEventsIn(n)
	tApply := time.Time{}
	if span != nil {
		tApply = time.Now()
	}
	if err := s.feedDriver(batch); err != nil {
		s.failFeed(err)
		return err
	}
	span.AddSince(obs.SpanApply, tApply)
	s.mirrorDriver()
	return s.deliver(span)
}

// mirrorDriver copies the driver's dispatch counters and merge-order bit into
// the session's atomics. Caller holds ingestMu, so the driver is quiescent.
func (s *Session) mirrorDriver() {
	d, ev := s.driver.DispatchStats()
	s.dispatches.Store(d)
	s.dispatchedEvents.Store(ev)
	s.outOfOrder.Store(!s.driver.FedInMergeOrder())
}

// feedDriver and advanceDriver are the operator panic boundary: a panic in
// a standing pipeline (its operators run on the ingesting goroutine or a
// shard worker) becomes this session's terminal
// error — subscribers observe it through Err() with the panic value and
// stack — instead of unwinding the committing goroutine or a shard worker
// and killing the process. The driver holds only this session's state, so
// abandoning it mid-panic corrupts nothing shared.
func (s *Session) feedDriver(batch []exec.Source) (err error) {
	defer func() {
		if perr := exec.CapturePanic(recover()); perr != nil {
			err = perr
		}
	}()
	return s.driver.Feed(batch)
}

func (s *Session) advanceDriver(pt types.Time) (err error) {
	defer func() {
		if perr := exec.CapturePanic(recover()); perr != nil {
			err = perr
		}
	}()
	return s.driver.Advance(pt)
}

// Advance moves the standing pipeline's processing-time clock to pt, firing
// any due EMIT AFTER DELAY timers and delivering the resulting deltas.
func (s *Session) Advance(pt types.Time) error {
	return s.advance(pt, nil)
}

// advance is Advance carrying the commit-path span (see ingestLog).
func (s *Session) advance(pt types.Time, span *obs.CommitSpan) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	if s.isClosed() {
		return s.terminalErr()
	}
	tApply := time.Time{}
	if span != nil {
		tApply = time.Now()
	}
	if err := s.advanceDriver(pt); err != nil {
		s.failFeed(err)
		return err
	}
	span.AddSince(obs.SpanApply, tApply)
	s.mirrorDriver()
	return s.deliver(span)
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// failFeed ends the session on a driver error. Caller holds ingestMu.
func (s *Session) failFeed(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeSessionLocked(err)
}

// renderLocked drains the driver's new output, retains it in the cumulative
// output log, and renders it: the stream rendering always, since the
// renderer's version counters must advance on every delivery, and the table
// rendering only while a table cursor is attached. Each cursor takes its
// own (Delta.as). It returns nil when nothing materialized. Caller holds
// ingestMu (driver access) and s.mu (renderer/outLog/cursors).
func (s *Session) renderLocked() *Delta {
	out := s.driver.Drain()
	wm := s.driver.OutputWatermark()
	s.wm.Store(int64(wm))
	if len(out) == 0 {
		return nil
	}
	s.produced = true
	if !s.noRetain && !s.overflowed {
		s.outLog = append(s.outLog, out...)
		if s.cfg.MaxRetainedRows > 0 && len(s.outLog) > s.cfg.MaxRetainedRows {
			s.releaseRetainedLocked()
		}
	}
	d := Delta{Watermark: wm, Stream: s.renderer.Append(out)}
	for _, c := range s.cursors {
		if c.mode == Table {
			d.Table = consolidate(out)
			break
		}
	}
	return &d
}

// deliver renders the driver's new output and fans it out to every attached
// cursor in attach order, under each cursor's slow-consumer policy. Caller
// holds ingestMu.
//
// Delivery is two-phase so one slow Block subscriber cannot starve its
// peers: first every cursor with buffer space receives its hand-off
// non-blocking (full DropWithError cursors are dropped right there), then
// the producer parks on the full Block cursors — simultaneously, holding
// only ingestMu — whose peers already hold the delta in their own buffers
// and keep draining meanwhile. The session stalls with nothing delivered at
// all only when every attached cursor is full. A park ends for a cursor
// when it makes space, cancels (the delta is abandoned with it), or closes
// (the delta folds into the cursor's final delta).
func (s *Session) deliver(span *obs.CommitSpan) error {
	tRender := time.Time{}
	if span != nil {
		tRender = time.Now()
	}
	s.mu.Lock()
	d := s.renderLocked()
	span.AddSince(obs.SpanRender, tRender)
	if d == nil {
		s.mu.Unlock()
		return nil
	}
	tDeliver := time.Time{}
	if span != nil {
		tDeliver = time.Now()
	}
	var blocked []*cursor
	var dropped []*cursor
	for _, c := range s.cursors {
		v := d.as(c.mode)
		if c.leaving {
			pending := v // a copy per folded cursor, so v itself stays on the stack
			c.pending = mergeDeltas(c.mode, c.pending, &pending)
			continue
		}
		select {
		case c.deltas <- v:
			c.noteDelivered(&v)
		default:
			if c.policy == DropWithError {
				dropped = append(dropped, c)
			} else {
				blocked = append(blocked, c)
			}
		}
	}
	anyDropped := len(dropped) > 0
	s.obsm.noteDrops(len(dropped))
	s.obsm.noteParks(len(blocked))
	for _, c := range dropped {
		c.setErr(ErrSlowConsumer)
		s.removeCursorLocked(c)
	}
	for _, c := range blocked {
		c.parked = true
	}
	s.mu.Unlock()

	if len(blocked) > 0 {
		s.parkAndDeliver(blocked, d)
	}
	span.AddSince(obs.SpanDeliver, tDeliver)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.everAttached && len(s.cursors) == 0 && !s.closed {
		// Every subscriber departed mid-delivery: the shared pipeline
		// dies with the last one, and the manager removes it on this
		// error. ErrSlowConsumer when a drop emptied the session (the
		// pre-sharing semantics); ErrClosed when cancels did.
		err := ErrClosed
		if anyDropped {
			err = ErrSlowConsumer
		}
		s.closeSessionLocked(err)
		return s.terminalErr()
	}
	return nil
}

// parkAndDeliver blocks until every full Block cursor has accepted the
// delta or departed (done closed by Cancel/Close). It waits on all of them
// simultaneously, so one slow peer cannot delay noticing another's
// departure. Holds no locks while parked; each resolution is finalized
// under s.mu and parkCond is broadcast so a Cancel/Close waiting for the
// cursor's parked bit can proceed.
func (s *Session) parkAndDeliver(blocked []*cursor, d *Delta) {
	cases := make([]reflect.SelectCase, 2*len(blocked))
	for i, c := range blocked {
		cases[2*i] = reflect.SelectCase{Dir: reflect.SelectSend, Chan: reflect.ValueOf(c.deltas), Send: reflect.ValueOf(d.as(c.mode))}
		cases[2*i+1] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(c.done)}
	}
	for remaining := len(blocked); remaining > 0; remaining-- {
		chosen, _, _ := reflect.Select(cases)
		ci := chosen / 2
		c := blocked[ci]
		sent := chosen%2 == 0
		cases[2*ci].Chan = reflect.Value{} // a zero Chan is never selected
		cases[2*ci+1].Chan = reflect.Value{}
		v := d.as(c.mode)
		s.mu.Lock()
		c.parked = false
		if sent {
			c.noteDelivered(&v)
		} else {
			// Departed mid-delivery: keep the rendered delta so a
			// graceful Close can still hand it over (Cancel discards
			// it by design), and stop delivering to this cursor.
			c.leaving = true
			if !c.discard {
				c.pending = mergeDeltas(c.mode, c.pending, &v)
			}
		}
		s.parkCond.Broadcast()
		s.mu.Unlock()
	}
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
// (pending and future deliveries abandoned, channels closed, Err reporting
// ErrClosed unless a terminal error was already recorded) and the driver is
// completed. The manager uses it to release a session whose registration
// failed partway; no delivery can be in flight there.
func (s *Session) cancel() {
	s.ingestMu.Lock()
	s.mu.Lock()
	s.closeSessionLocked(ErrClosed)
	s.mu.Unlock()
	s.ingestMu.Unlock()
	s.runTeardown()
}

// mergeDeltas folds two consecutive deltas into one so an interrupted
// delivery concatenates gaplessly with the close-time delta.
func mergeDeltas(mode Mode, a, b *Delta) *Delta {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := Delta{Watermark: b.Watermark}
	if mode == Table {
		out.Table = &TableDiff{
			Ptime:    a.Table.Ptime,
			Inserted: append(append([]types.Row{}, a.Table.Inserted...), b.Table.Inserted...),
			Deleted:  append(append([]types.Row{}, a.Table.Deleted...), b.Table.Deleted...),
		}
		if b.Table.Ptime > out.Table.Ptime {
			out.Table.Ptime = b.Table.Ptime
		}
		return &out
	}
	out.Stream = append(append([]tvr.StreamRow{}, a.Stream...), b.Stream...)
	return &out
}

// String renders a one-line diagnostic summary of the shared pipeline.
func (s *Session) String() string {
	return fmt.Sprintf("live [%s] id=%d subs=%d in=%d wm=%s",
		s.cfg.Name, s.id.Load(), s.nsubs.Load(), s.eventsIn.Load(),
		types.Time(s.wm.Load()))
}
