package live

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Manager is the routing half of the standing-query subsystem: a registry of
// live sessions keyed by the relations they scan, plus the shared-plan table
// that dedupes identical subscriptions onto one resident pipeline. The
// package documentation states its commit, fan-out and lock-order contract.
type Manager struct {
	mu     sync.Mutex
	nextID int

	// sessions is the routing table, every registered session in
	// registration-id order (the fan-out order), and plans the shared-plan
	// table, plan key -> resident session. Both are copy on write: changed
	// only under mu, by storing a new copy, so the fan-out iterates the
	// published slice as it is, and Len, Subscribers, the scrape-time gauges
	// and ResidentRead read them without mu.
	sessions atomic.Pointer[[]*Session]
	plans    atomic.Pointer[map[string]*Session]

	// seq is the last commit sequence number and lastHeartbeat the last
	// committed processing-time heartbeat (types.Time; MinTime = none), the
	// clock a late registration catches up to (see registerLocked). Both
	// advance only inside the m.mu commit critical section; lastHeartbeat
	// is atomic so the watermark-lag gauge reads it at scrape time without
	// m.mu.
	seq           uint64
	lastHeartbeat atomic.Int64

	// obsm holds the manager-wide delivery counters (nil without
	// Options.Obs; see obs.go). Sessions receive the same pointer at
	// registration so hot-path increments need no indirection through m.
	obsm *liveMetrics
}

// Options configures a Manager.
type Options struct {
	// Obs, when non-nil, registers the live_* and exec_* metric families on
	// the given registry and enables the hot-path delivery counters. Nil
	// costs nothing beyond nil checks.
	Obs *obs.Registry
}

// NewManagerWith creates an empty registry with the given options.
func NewManagerWith(o Options) *Manager {
	m := &Manager{}
	m.sessions.Store(&[]*Session{})
	m.plans.Store(&map[string]*Session{})
	m.lastHeartbeat.Store(int64(types.MinTime))
	if o.Obs != nil {
		m.registerMetrics(o.Obs)
	}
	return m
}

// Query is a standing query as the engine plans it, in the terms the manager
// needs to start or restore its session.
type Query struct {
	// Key is the plan key the session is shared under (see Subscribe).
	Key    string
	Config Config
	// Compile builds a fresh, unstarted driver, and History returns the
	// recorded changelogs it replays to catch up.
	Compile func() (exec.Driver, error)
	History func() ([]exec.Source, error)
	// Load restores a checkpointed driver from dec, already started.
	Load func(dec *checkpoint.Decoder) (exec.Driver, error)
}

// Create starts a session with no cursors on a freshly compiled driver.
func (q Query) Create() (*Session, error) {
	d, err := q.Compile()
	if err != nil {
		return nil, err
	}
	return NewSession(d, q.Config)
}

// Subscribe is the shared-plan entry point. When the session resident under
// key can take a late subscriber, the new cursor attaches to it, in
// whichever mode opts asks for: no second pipeline is compiled or fed.
// Otherwise create builds a fresh session, which is registered (history
// replay plus processing-time catch-up, all under the ordering lock so no
// concurrently published change can slip into the gap) and takes the key.
// A resident session that cannot take the cursor has closed, or has released
// its retained output at its cap; the fresh session is its successor, built
// under this subscriber's options. The predecessor keeps serving the cursors
// it has and tears down with the last one. Any failure on the create path
// cancels the session so a started driver can never leak.
func (m *Manager) Subscribe(key string, opts CursorOpts, create func() (*Session, error), history func() ([]exec.Source, error)) (*Subscription, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sess := (*m.plans.Load())[key]; sess != nil {
		if sub, err := sess.Attach(opts); err == nil {
			return sub, nil
		}
	}
	sess, err := create()
	if err != nil {
		return nil, err
	}
	if err := m.registerLocked(sess, history); err != nil {
		sess.cancel()
		return nil, err
	}
	sub, err := sess.Attach(opts)
	if err != nil {
		m.removeLocked(sess)
		sess.cancel()
		return nil, err
	}
	m.shareLocked(key, sess)
	return sub, nil
}

func (m *Manager) registerLocked(sess *Session, history func() ([]exec.Source, error)) error {
	// Hand the session the delivery counters before the history replay so
	// the replayed batch is counted like any live delivery.
	sess.setObs(m.obsm)
	if history != nil {
		batch, err := history()
		if err != nil {
			return err
		}
		if err := sess.IngestLog(batch); err != nil {
			return err
		}
	}
	// Catch the new pipeline's processing-time clock up to the last
	// committed heartbeat, after the history replay: delay timers the
	// replayed events armed that are already due must fire now, not at the
	// next broadcast, or the late joiner's emissions would coalesce
	// differently than an early subscriber's.
	if pt := types.Time(m.lastHeartbeat.Load()); pt > types.MinTime {
		if err := sess.Advance(pt); err != nil {
			return err
		}
	}
	m.installLocked(sess)
	return nil
}

// shareLocked records the registered session under plan key, where
// Subscribe attaches to it and ResidentRead finds it. A predecessor under
// the same key loses it.
func (m *Manager) shareLocked(key string, sess *Session) {
	sess.key = key
	plans := maps.Clone(*m.plans.Load())
	plans[key] = sess
	m.plans.Store(&plans)
}

// installLocked gives the session the next pipeline id and appends it to
// the routing table: ids are handed out in order, so the table stays in id
// order. From here on only a holder of m.mu drives the session.
func (m *Manager) installLocked(sess *Session) {
	sess.m = m
	sess.id.Store(int64(m.nextID))
	m.nextID++
	sessions := append(slices.Clip(*m.sessions.Load()), sess)
	m.sessions.Store(&sessions)
}

// removeLocked takes the session out of the routing table, and out of the
// shared-plan table while it still holds its key (a predecessor leaving must
// not clobber the successor Subscribe installed under the same key). A
// session that has left already is not there.
func (m *Manager) removeLocked(sess *Session) {
	old := *m.sessions.Load()
	i := slices.Index(old, sess)
	if i < 0 {
		return
	}
	sessions := slices.Delete(slices.Clone(old), i, i+1)
	m.sessions.Store(&sessions)
	if plans := *m.plans.Load(); plans[sess.key] == sess {
		plans = maps.Clone(plans)
		delete(plans, sess.key)
		m.plans.Store(&plans)
	}
}

// Why a one-shot read of a close-inert plan could not be answered from a
// resident session and replays instead (see the read contract in the
// package documentation). They label engine_query_replay_total.
const (
	ReplayNoSession  = "no_session"   // no session is resident under the plan key
	ReplayClosed     = "closed"       // the resident session has closed
	ReplayOutOfOrder = "out_of_order" // its driver was fed out of merge order, or restored
	ReplayOverflow   = "overflow"     // its retained output was released
)

// ResidentRead answers a one-shot read at at, in mode, from the session
// resident under key (Session.read), or names a Replay* reason. It does not
// take m.mu.
func (m *Manager) ResidentRead(key string, at types.Time, mode Mode) (r Reading, replay string, err error) {
	sess := (*m.plans.Load())[key]
	if sess == nil {
		return r, ReplayNoSession, nil
	}
	return sess.read(at, mode)
}

// PublishSpan atomically commits an engine-side change and routes the
// resulting events to every session scanning the named relation. The commit,
// its sequence number and the deliveries all run on the committing goroutine
// under the ordering lock. Each session receives the whole batch in one
// delivery (one delta per attached cursor) rather than per-event. A session
// that refuses the batch (closed or failed) is removed from the routing
// table; its subscribers learn why from Subscription.Err.
//
// The commit-path span's sequence stage is timed here; validate/WAL happen
// inside commit (the engine times them before handing the span over) and
// apply/render/deliver inside each session. The span finishes — recording
// histograms and possibly emitting the slow-commit log — before PublishSpan
// returns. A nil span is a no-op on every path.
func (m *Manager) PublishSpan(commit func() error, name string, evs []tvr.Event, span *obs.CommitSpan) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer span.Finish()
	if err := commit(); err != nil {
		span.Discard()
		return err
	}
	tSeq := time.Time{}
	if span != nil {
		tSeq = time.Now()
	}
	m.seq++
	span.SetSeq(m.seq)
	span.AddSince(obs.SpanSequence, tSeq)
	if len(evs) == 0 {
		return nil
	}
	batch := []exec.Source{{Name: name, Log: evs}}
	m.fanOutLocked(func(sess *Session) bool { return sess.Matches(name) },
		func(sess *Session) error { return sess.ingestLog(batch, span) })
	return nil
}

// AdvanceWithSpan broadcasts a processing-time heartbeat to every session,
// firing due EMIT AFTER DELAY timers across all standing queries, and records
// pt as the last heartbeat so later-registered sessions start from the same
// clock. A non-nil commit runs under the ordering lock before any session
// sees the heartbeat — the same commit-before-fan-out shape as PublishSpan.
// The engine uses it to append the heartbeat to its write-ahead log in
// exactly the global order sessions observe it; a commit failure suppresses
// the broadcast entirely, so the log never misses a heartbeat that fired a
// timer. The span follows PublishSpan's stage ownership.
func (m *Manager) AdvanceWithSpan(pt types.Time, commit func() error, span *obs.CommitSpan) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer span.Finish()
	if commit != nil {
		if err := commit(); err != nil {
			span.Discard()
			return err
		}
	}
	tSeq := time.Time{}
	if span != nil {
		tSeq = time.Now()
	}
	m.seq++
	m.recordHeartbeatLocked(pt)
	span.SetSeq(m.seq)
	span.AddSince(obs.SpanSequence, tSeq)
	m.fanOutLocked(func(*Session) bool { return true },
		func(sess *Session) error { return sess.advance(pt, span) })
	return nil
}

// recordHeartbeatLocked advances the last-heartbeat clock to pt if it moved
// forward. Caller holds m.mu.
func (m *Manager) recordHeartbeatLocked(pt types.Time) {
	if pt > types.Time(m.lastHeartbeat.Load()) {
		m.lastHeartbeat.Store(int64(pt))
	}
}

// fanOutLocked applies a commit to the matching sessions in registration-id
// order on the calling goroutine, removing a session that refuses its
// delivery (closed or failed). It iterates the table as published: a
// removal stores a new copy and leaves this one as it is.
func (m *Manager) fanOutLocked(match func(*Session) bool, apply func(*Session) error) {
	for _, sess := range *m.sessions.Load() {
		if match(sess) && apply(sess) != nil {
			m.removeLocked(sess)
		}
	}
}

// Len reports the number of resident pipelines without taking the routing
// lock, so liveness probes stay responsive during a long commit.
func (m *Manager) Len() int {
	return len(*m.sessions.Load())
}

// Subscribers reports the total number of attached subscriber cursors
// across all resident pipelines. Like Len it takes no locks.
func (m *Manager) Subscribers() int {
	n := 0
	for _, sess := range *m.sessions.Load() {
		n += sess.Subscribers()
	}
	return n
}
