package live

import (
	"fmt"
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
// mode. The session ends when the last cursor departs, or immediately on a
// pipeline error.
//
// The driver has one caller at a time, by the ownership rule in the package
// documentation: while the session is registered, the holder of its
// manager's ordering lock; before that, and after the goroutine that
// removes it from the routing table, that goroutine. mu guards the cursors
// and the retained output; a commit holds it only to append, so readers,
// Attach, Stats and resident reads wait at most for an append, never for a
// running feed.
type Session struct {
	cfg     Config
	driver  exec.Driver
	sources map[string]bool
	// m and key are set by the manager, under its lock, when it registers
	// the session and when the session takes its plan key, before any
	// cursor can depart; the session keeps both when it leaves.
	m   *Manager
	key string

	// vmu is the versioning lock: it guards the retained output's versions
	// (output.v), which readers assign (capture). No commit takes it. Taken
	// before mu, never while holding it.
	vmu     sync.Mutex
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
	groups   atomic.Int64 // the renderer's version counters, stored per delivery
	retained atomic.Int64 // the retained output rows, stored per delivery, trim and restore
	// Batched-execution observability, mirrored from the driver's
	// exec.Stats after every feed so lock-free Stats readers see them
	// without touching the driver.
	dispatches       atomic.Int64
	dispatchedEvents atomic.Int64
	// outOfOrder mirrors !driver.FedInMergeOrder() the same way, before the
	// feed's output is retained, so a read never serves output of an
	// out-of-order feed.
	outOfOrder atomic.Bool

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
	}
	s.out.init(d.Output(), cfg.EmitKeys, cfg.MaxRetainedRows)
	s.wm.Store(int64(types.MinTime))
	for _, name := range cfg.Sources {
		s.sources[strings.ToLower(name)] = true
	}
	d0, ev0 := d.DispatchStats()
	s.dispatches.Store(d0)
	s.dispatchedEvents.Store(ev0)
	return s
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
		c.noteOwed(p.log.Len())
	}
	s.cursors = append(s.cursors, c)
	s.nsubs.Store(int64(len(s.cursors)))
	go c.run()
	return &Subscription{c: c}, nil
}

// removeCursorLocked detaches a cursor from the session. It records no
// error — callers set one first when the detach is not graceful — and
// leaves the cursor's reader to its stop or the session's close. The rows
// its departure frees wait, past unversioned rows, for the next reader to
// advance (trimLocked).
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
// (errors irrelevant on a failing session). Caller holds s.mu and owns the
// driver, which nothing has completed before. A registered session's
// caller removes it from the routing table too: the fan-out when a delivery
// fails, the departing last cursor (retire) otherwise.
func (s *Session) closeSessionLocked(err error) {
	s.setErr(err)
	s.closed = true
	s.out.fold = nil
	for len(s.cursors) > 0 {
		c := s.cursors[0]
		c.setErr(err)
		c.wakeLocked() // an idle reader sees the close
		s.removeCursorLocked(c)
	}
	// A driver being closed *because* it panicked may well panic again out
	// of its half-unwound operator state; the session is terminal either
	// way.
	func() {
		defer func() { recover() }() //nolint:errcheck
		s.driver.Close()             //nolint:errcheck
	}()
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
			n += int64(src.Len())
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
// Caller owns the driver (see Session).
//
// step is the standing pipeline's panic boundary: a panic anywhere in it —
// the driver call, mirroring its counters, publishing its output, waking
// the cursors (operators run on the committing goroutine) —
// becomes this session's terminal error, which subscribers observe through
// Err() with the panic value and stack, instead of unwinding the committing
// goroutine and killing the process. The driver and the retained output hold
// only this session's state, so abandoning them mid-panic corrupts nothing
// shared.
func (s *Session) step(span *obs.CommitSpan, call func() error) (err error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return s.terminalErr()
	}
	// Deferred first, so it runs last: a panic below has released s.mu.
	defer func() {
		if perr := exec.CapturePanic(recover()); perr != nil {
			err = perr
		}
		if err != nil {
			s.mu.Lock()
			s.closeSessionLocked(err)
			s.mu.Unlock()
		}
	}()
	tApply := time.Time{}
	if span != nil {
		tApply = time.Now()
	}
	err = call()
	span.AddSince(obs.SpanApply, tApply)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mirrorDriver()
	s.appendOutputLocked(span)
	return nil
}

// mirrorDriver copies the driver's dispatch counters and merge-order bit into
// the session's atomics, and adds the dispatches since the last feed to the
// manager's counters. Caller owns the driver, so it is quiescent.
func (s *Session) mirrorDriver() {
	d, ev := s.driver.DispatchStats()
	s.obsm.noteDispatched(d-s.dispatches.Swap(d), ev-s.dispatchedEvents.Swap(ev))
	s.outOfOrder.Store(!s.driver.FedInMergeOrder())
}

// appendOutputLocked publishes the output the driver staged as one
// delivery: the rows and the output watermark. It versions nothing: the
// readers do (capture). Each attached cursor is owed one delta more.
// Nothing is delivered when nothing materialized. Caller owns the driver and
// holds s.mu.
func (s *Session) appendOutputLocked(span *obs.CommitSpan) {
	tRender := time.Time{}
	if span != nil {
		tRender = time.Now()
	}
	wm := s.driver.OutputWatermark()
	s.wm.Store(int64(wm))
	n := s.out.deliver(wm)
	span.AddSince(obs.SpanRender, tRender)
	if n == 0 {
		return
	}
	tDeliver := time.Time{}
	if span != nil {
		tDeliver = time.Now()
	}
	for _, c := range s.cursors {
		c.noteOwed(n)
		c.wakeLocked()
	}
	s.trimLocked()
	span.AddSince(obs.SpanDeliver, tDeliver)
}

// trimLocked lets the retained output drop, past its cap, what every attached
// cursor has received, and stores the rows it retains for the
// live_retained_rows gauge. A closed session keeps what it has for its
// detached readers. Rows not yet versioned stay, and trimLocked reports
// whether they held the trim back; a caller that may take the versioning
// lock, which no commit does, then calls trimPastCap. Only a session whose
// cursors are all table cursors falls behind: a stream cursor versions what
// it reads.
func (s *Session) trimLocked() (behind bool) {
	if s.closed {
		return false
	}
	low := s.out.end()
	for _, c := range s.cursors {
		low = min(low, c.next)
	}
	behind = s.out.trim(low)
	s.retained.Store(int64(s.out.rows.Len()))
	return behind
}

// trimPastCap versions the rows that held a trim back (trimLocked), then
// trims again. A cursor's reader calls it after it advances.
func (s *Session) trimPastCap() {
	s.capture(Stream, func() (piece, bool) {
		return piece{from: s.out.marks.At(s.out.marks.Base()).end}, true
	})
	s.mu.Lock()
	s.trimLocked()
	s.mu.Unlock()
}

// capture runs f under s.mu and returns the piece it captures, if any. For
// a stream rendering it also versions the piece: it holds the versioning
// lock from before f until the piece's versions are captured, so no other
// versioner trims them in between, and it assigns the versions of every row
// below the piece's end outside s.mu, so a commit never waits on it.
func (s *Session) capture(mode Mode, f func() (piece, bool)) (piece, bool) {
	if mode == Table {
		s.mu.Lock()
		defer s.mu.Unlock()
		return f()
	}
	s.vmu.Lock()
	defer s.vmu.Unlock()
	s.mu.Lock()
	p, ok := f()
	var tail tvr.Range[tvr.Event]
	base := 0
	if ok {
		tail, base = s.out.unversioned(p.from + p.log.Len())
	}
	s.mu.Unlock()
	if ok {
		s.version(tail, base)
		p.vers = s.out.v.of(p)
	}
	return p, ok
}

// version is versions.version storing the renderer's counters for the
// live_renderer_groups gauge. Caller holds the versioning lock.
func (s *Session) version(tail tvr.Range[tvr.Event], base int) {
	s.out.v.version(tail, base)
	s.groups.Store(int64(s.out.v.renderer.Groups()))
}

// retire takes the session out of service for its departing last cursor c
// (nil for a cursor that has already detached). Under the manager's lock,
// while the session is registered, and s.mu, it checks that the session is
// open and that no cursor but c is attached: a racing Attach may have
// revived it, or a failing commit closed it. If so, it marks the session
// closed, so it accepts neither input nor cursors, and removes it from the
// routing table, and reports true: the caller owns the driver from then on.
func (s *Session) retire(c *cursor) bool {
	if m := s.m; m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed, len(s.cursors) > 1, len(s.cursors) == 1 && s.cursors[0] != c:
		return false
	}
	s.closed = true
	if s.m != nil {
		s.m.removeLocked(s)
	}
	return true
}

// cancel ends a session its caller owns, one that is not registered (or no
// longer is) and has no cursor departing: every cursor terminates (Err
// reporting ErrClosed unless a terminal error was already recorded) and the
// driver is completed. The manager uses it to release a session whose
// registration failed partway, before any cursor attached.
func (s *Session) cancel() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closeSessionLocked(ErrClosed)
	}
}

// String renders a one-line diagnostic summary of the shared pipeline.
func (s *Session) String() string {
	return fmt.Sprintf("live [%s] id=%d subs=%d in=%d wm=%s",
		s.cfg.Name, s.id.Load(), s.nsubs.Load(), s.eventsIn.Load(),
		types.Time(s.wm.Load()))
}
