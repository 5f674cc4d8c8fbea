package live

import (
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
	subs   map[int]*Session
	order  []int               // registration ids, ascending — the fan-out order
	plans  map[string]*Session // shared-plan table: plan key -> resident session

	// seq is the last commit sequence number and lastHeartbeat the last
	// committed processing-time heartbeat (types.Time; MinTime = none), the
	// clock a late registration catches up to (see registerLocked). Both
	// advance only inside the m.mu commit critical section; lastHeartbeat
	// is atomic so the watermark-lag gauge reads it at scrape time without
	// m.mu.
	seq           uint64
	lastHeartbeat atomic.Int64

	count atomic.Int64 // len(subs), readable without m.mu
	snap  atomic.Value // []*Session, for lock-free Subscribers()
	// plansSnap is a copy-on-write copy of plans (map[string]*Session), so
	// ResidentRead finds a session without m.mu.
	plansSnap atomic.Value

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
	m := &Manager{
		subs:  make(map[int]*Session),
		plans: make(map[string]*Session),
	}
	m.lastHeartbeat.Store(int64(types.MinTime))
	m.snap.Store([]*Session{})
	m.plansSnap.Store(map[string]*Session{})
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
	if sess := m.plans[key]; sess != nil {
		if sub, err := sess.Attach(opts); err == nil {
			return sub, nil
		}
	}
	sess, err := create()
	if err != nil {
		return nil, err
	}
	id, err := m.registerLocked(sess, history)
	if err != nil {
		sess.cancel()
		return nil, err
	}
	sub, err := sess.Attach(opts)
	if err != nil {
		m.removeLocked(id)
		sess.teardownOnce.Do(func() {}) // already unregistered; neutralize the hook
		sess.cancel()
		return nil, err
	}
	m.shareLocked(key, sess)
	return sub, nil
}

func (m *Manager) registerLocked(sess *Session, history func() ([]exec.Source, error)) (int, error) {
	// Hand the session the delivery counters before the history replay so
	// the replayed batch is counted like any live delivery.
	sess.setObs(m.obsm)
	if history != nil {
		batch, err := history()
		if err != nil {
			return 0, err
		}
		if err := sess.IngestLog(batch); err != nil {
			return 0, err
		}
	}
	// Catch the new pipeline's processing-time clock up to the last
	// committed heartbeat, after the history replay: delay timers the
	// replayed events armed that are already due must fire now, not at the
	// next broadcast, or the late joiner's emissions would coalesce
	// differently than an early subscriber's.
	if pt := types.Time(m.lastHeartbeat.Load()); pt > types.MinTime {
		if err := sess.Advance(pt); err != nil {
			return 0, err
		}
	}
	id := m.nextID
	m.nextID++
	m.installLocked(id, sess)
	return id, nil
}

// shareLocked records the registered session under plan key, where
// Subscribe attaches to it and ResidentRead finds it. A predecessor under
// the same key loses it.
func (m *Manager) shareLocked(key string, sess *Session) {
	sess.key = key
	m.plans[key] = sess
	m.refreshLocked()
}

// installLocked wires a session into the routing table under the given id:
// fan-out order and teardown hook.
func (m *Manager) installLocked(id int, sess *Session) {
	m.subs[id] = sess
	m.order = append(m.order, id) // nextID is monotonic: stays sorted
	m.refreshLocked()
	sess.setID(id)
	sess.SetTeardown(func() { m.unregister(id) })
}

func (m *Manager) unregister(id int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.removeLocked(id)
}

func (m *Manager) removeLocked(id int) {
	sess, ok := m.subs[id]
	if !ok {
		return
	}
	delete(m.subs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	// Only drop the shared-plan entry while it still points at this
	// session: a predecessor's teardown must not clobber the successor
	// that Subscribe installed under the same key.
	if m.plans[sess.key] == sess {
		delete(m.plans, sess.key)
	}
	m.refreshLocked()
}

// refreshLocked rebuilds the lock-free state: the observability snapshot and
// the copy of the plan table. Every change to subs or plans ends here.
func (m *Manager) refreshLocked() {
	m.count.Store(int64(len(m.subs)))
	sessions := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		sessions = append(sessions, m.subs[id])
	}
	m.snap.Store(sessions)
	plans := make(map[string]*Session, len(m.plans))
	for key, sess := range m.plans {
		plans[key] = sess
	}
	m.plansSnap.Store(plans)
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
// resident under key (Session.read), or names a Replay* reason. It takes
// neither m.mu nor any session's ingestMu.
func (m *Manager) ResidentRead(key string, at types.Time, mode Mode) (r Reading, replay string, err error) {
	sess := m.plansSnap.Load().(map[string]*Session)[key]
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
// delivery (closed or failed).
func (m *Manager) fanOutLocked(match func(*Session) bool, apply func(*Session) error) {
	for _, id := range append([]int(nil), m.order...) {
		if sess := m.subs[id]; sess != nil && match(sess) && safeApply(sess, apply) != nil {
			m.removeLocked(id)
		}
	}
}

// safeApply is the fan-out's last-resort panic boundary. An operator panic
// is already converted into the session's terminal error inside the
// session (see Session.step); this catches anything that escapes the
// delivery path so it fails the one session it came from instead of
// unwinding the committing goroutine and killing the process. The other
// sessions keep their deliveries.
func safeApply(sess *Session, apply func(*Session) error) (err error) {
	defer func() {
		if perr := exec.CapturePanic(recover()); perr != nil {
			sess.setErr(perr)
			err = perr
		}
	}()
	return apply(sess)
}

// Len reports the number of resident pipelines without taking the routing
// lock, so liveness probes stay responsive during a long commit.
func (m *Manager) Len() int {
	return int(m.count.Load())
}

// Subscribers reports the total number of attached subscriber cursors
// across all resident pipelines. Like Len it takes no locks.
func (m *Manager) Subscribers() int {
	n := 0
	for _, sess := range m.snap.Load().([]*Session) {
		n += sess.Subscribers()
	}
	return n
}
