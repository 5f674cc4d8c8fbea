package live

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/shard"
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
	keys   map[int]string      // registration id -> plan key (for cleanup)

	// seq is the global commit sequencer. Its sequence counter and
	// last-heartbeat clock advance only inside the m.mu commit critical
	// section, making it the authoritative ordering-path state a
	// registration's catch-up reads (see registerLocked) — its reads are
	// atomic, so they cannot race the asynchronous shard application of
	// the same heartbeats.
	seq *shard.Sequencer
	// pool is the shard worker pool; nil in serial mode.
	pool *shard.Pool

	count atomic.Int64 // len(subs), readable without m.mu
	snap  atomic.Value // []*Session, for lock-free Subscribers()
	// plansSnap is a copy-on-write copy of plans (map[string]*Session), so
	// ResidentOutput finds a session without m.mu.
	plansSnap atomic.Value

	// obsm holds the manager-wide delivery counters (nil without
	// Options.Obs; see obs.go). Sessions receive the same pointer at
	// registration so hot-path increments need no indirection through m.
	obsm *liveMetrics
}

// Options configures a Manager.
type Options struct {
	// Shards > 0 enables the sharded ingest subsystem with that many shard
	// workers; 0 keeps the serial fan-out (every delivery on the
	// committing goroutine).
	Shards int
	// QueueDepth bounds each shard's ingest queue
	// (shard.DefaultQueueDepth when 0). A publisher blocks once a shard's
	// queue is full.
	QueueDepth int
	// Obs, when non-nil, registers the live_*, exec_*, and shard_* metric
	// families on the given registry and enables the hot-path delivery
	// counters. Nil costs nothing beyond nil checks.
	Obs *obs.Registry
}

// NewManagerWith creates an empty registry with the given fan-out options.
func NewManagerWith(o Options) *Manager {
	m := &Manager{
		subs:  make(map[int]*Session),
		plans: make(map[string]*Session),
		keys:  make(map[int]string),
		seq:   shard.NewSequencer(),
	}
	if o.Shards > 0 {
		m.pool = shard.NewPoolObs(o.Shards, o.QueueDepth, o.Obs)
	}
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

// Subscribe is the shared-plan entry point. When key is non-empty and a
// resident session for it exists, the new subscriber attaches to it as an
// extra cursor, in whichever mode opts asks for — no second pipeline is
// compiled or fed. Otherwise create builds a fresh session, which is
// registered (history replay plus processing-time catch-up, all under the
// ordering lock so no concurrently published change can slip into the gap)
// and recorded under key. An empty key always creates a dedicated session.
// Any failure on the create path cancels the session so a started driver
// can never leak.
func (m *Manager) Subscribe(key string, opts CursorOpts, create func() (*Session, error), history func() ([]exec.Source, error)) (*Subscription, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key != "" {
		if sess := m.plans[key]; sess != nil {
			// Attach barrier: the snapshot hand-off must reflect every
			// commit acknowledged so far, so drain the session's shard to
			// the current sequence point first. New commits cannot slip
			// in — we hold the ordering lock.
			m.drainSessionLocked(sess)
			sub, err := sess.Attach(opts)
			if err == nil {
				return sub, nil
			}
			if errors.Is(err, ErrRetainedOverflow) {
				// The resident session is alive but shed its retained
				// output at the configured cap, so it cannot hand a
				// late subscriber the snapshot. Surfacing the error
				// (rather than silently compiling a shadow pipeline
				// for the same plan) keeps both memory and pipeline
				// count bounded; the caller can subscribe Exclusive,
				// which replays recorded history instead.
				return nil, err
			}
			// The resident session died concurrently (its last cursor
			// departed between our lookup and the attach); fall
			// through and build a replacement.
			delete(m.plans, key)
			m.refreshLocked()
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
	if key != "" {
		m.shareLocked(key, id, sess)
	} else {
		// A dedicated session can never see a late attach, so retaining
		// its output changelog for snapshot hand-off would be dead
		// weight; its only subscriber already got the history delta.
		sess.DropRetainedOutput()
	}
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
	// differently than an early subscriber's. The clock comes from the
	// sequencer — ordering-path state advanced under this same lock at
	// commit time — never from what the shard workers have applied so
	// far, which lags it.
	if pt := m.seq.LastHeartbeat(); pt > types.MinTime {
		if err := sess.Advance(pt); err != nil {
			return 0, err
		}
	}
	id := m.nextID
	m.nextID++
	m.installLocked(id, sess)
	return id, nil
}

// shareLocked records the registered session id under plan key, where
// Subscribe attaches to it and ResidentOutput finds it.
func (m *Manager) shareLocked(key string, id int, sess *Session) {
	m.plans[key] = sess
	m.keys[id] = key
	m.refreshLocked()
}

// installLocked wires a session into the routing table under the given id:
// fan-out order, teardown hook, and — in sharded mode — its permanent shard
// placement and the drain hook a graceful cursor close uses as its barrier.
func (m *Manager) installLocked(id int, sess *Session) {
	m.subs[id] = sess
	m.order = append(m.order, id) // nextID is monotonic: stays sorted
	m.refreshLocked()
	sess.setID(id)
	sess.SetTeardown(func() { m.unregister(id) })
	if m.pool != nil {
		sh := m.pool.ShardOf(id)
		sess.setShard(sh)
		sess.setDrain(func() { m.pool.DrainShard(sh) })
	}
}

// drainSessionLocked waits until the session's shard has applied every task
// enqueued so far. Serial mode needs no barrier — fan-out is synchronous.
// Caller holds m.mu, which the workers never take.
func (m *Manager) drainSessionLocked(sess *Session) {
	if m.pool != nil {
		m.pool.DrainShard(sess.shardIndex())
	}
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
	if key, ok := m.keys[id]; ok {
		delete(m.keys, id)
		// Only drop the shared-plan entry while it still points at this
		// session: a dying session's deferred teardown must not clobber
		// the replacement that Subscribe installed under the same key.
		if m.plans[key] == sess {
			delete(m.plans, key)
		}
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

// ResidentOutput returns the retained output changelog of the session
// resident under key, when it can answer a read (see the read contract in
// the package documentation); otherwise replay is one of the Replay*
// reasons. It takes neither m.mu nor any session's ingestMu, only the
// session's mu.
func (m *Manager) ResidentOutput(key string) (log tvr.Changelog, replay string) {
	sess := m.plansSnap.Load().(map[string]*Session)[key]
	if sess == nil {
		return nil, ReplayNoSession
	}
	return sess.retainedOutput()
}

// PublishSpan atomically commits an engine-side change and routes the
// resulting events to every session scanning the named relation. The commit (and, in
// sharded mode, the sequence-number acquisition and per-shard enqueues)
// happens under the ordering lock; the deliveries themselves run on the
// committing goroutine in serial mode or on the shard workers otherwise.
// Each session receives the whole batch in one delivery (one delta per
// attached cursor) rather than per-event. A session
// that refuses the batch (canceled, every cursor dropped, or failed) is
// removed from the routing table; its subscribers learn why from
// Subscription.Err.
//
// The commit-path span's sequence and enqueue stages are timed here; validate/WAL happen inside commit (the
// engine times them before handing the span over) and apply/render/deliver
// inside each session. The publisher releases its span reference before
// returning; in sharded mode the span finalizes — recording histograms and
// possibly emitting the slow-commit log — when the last shard task
// finishes. A nil span is a no-op on every path.
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
	seq := m.seq.Next()
	span.SetSeq(seq)
	if len(evs) == 0 {
		span.AddSince(obs.SpanSequence, tSeq)
		return nil
	}
	batch := []exec.Source{{Name: name, Log: evs}}
	if m.pool == nil {
		span.AddSince(obs.SpanSequence, tSeq)
		for _, id := range append([]int(nil), m.order...) {
			sess := m.subs[id]
			if sess == nil || !sess.Matches(name) {
				continue
			}
			if err := safeApply(sess, func(s *Session) error { return s.ingestLog(batch, span) }); err != nil {
				m.removeLocked(id)
			}
		}
		return nil
	}
	span.AddSince(obs.SpanSequence, tSeq)
	m.fanOutLocked(seq, span, func(sess *Session) bool { return sess.Matches(name) },
		func(sess *Session) error { return sess.ingestLog(batch, span) })
	return nil
}

// AdvanceWithSpan broadcasts a processing-time heartbeat to every session,
// firing due EMIT AFTER DELAY timers across all standing queries, and records
// pt in the sequencer so later-registered sessions start from the same
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
	seq := m.seq.Next()
	m.seq.RecordHeartbeat(pt)
	span.SetSeq(seq)
	span.AddSince(obs.SpanSequence, tSeq)
	if m.pool == nil {
		for _, id := range append([]int(nil), m.order...) {
			sess := m.subs[id]
			if sess == nil {
				continue
			}
			if err := safeApply(sess, func(s *Session) error { return s.advance(pt, span) }); err != nil {
				m.removeLocked(id)
			}
		}
		return nil
	}
	m.fanOutLocked(seq, span, func(*Session) bool { return true },
		func(sess *Session) error { return sess.advance(pt, span) })
	return nil
}

// fanOutLocked groups the matching sessions by shard and enqueues one task
// per affected shard, in ascending shard order, all under m.mu — so every
// shard's FIFO queue carries commits in global sequence order. The task
// feeds the shard's sessions in registration-id order (the groups preserve
// m.order). A session that refuses its delivery is torn down from a fresh
// goroutine: the worker itself must never take m.mu, which a publisher
// blocked on a full shard queue may hold.
func (m *Manager) fanOutLocked(seq uint64, span *obs.CommitSpan, match func(*Session) bool, apply func(*Session) error) {
	groups := make([][]*Session, m.pool.Shards())
	any := false
	nGroups := 0
	for _, id := range m.order {
		sess := m.subs[id]
		if sess == nil || !match(sess) {
			continue
		}
		sh := m.pool.ShardOf(id)
		if len(groups[sh]) == 0 {
			nGroups++
		}
		groups[sh] = append(groups[sh], sess)
		any = true
	}
	if !any {
		return
	}
	// Each shard task holds one span reference; the publisher's own
	// reference (released by PublishSpan/AdvanceWithSpan) keeps the span
	// open until every task is enqueued, so the span finalizes on whichever
	// worker finishes last.
	span.Fork(nGroups)
	tEnq := time.Time{}
	if span != nil {
		tEnq = time.Now()
	}
	for sh, sessions := range groups {
		if len(sessions) == 0 {
			continue
		}
		sessions := sessions
		m.pool.Enqueue(sh, seq, func() {
			defer span.Finish()
			for _, sess := range sessions {
				if err := safeApply(sess, apply); err != nil {
					// The session refused the delivery (canceled,
					// dropped, or failed): unregister it without
					// blocking this worker on the manager lock.
					go sess.runTeardown()
				}
			}
		})
	}
	// Includes any time the publisher spent blocked on a full shard queue —
	// the backpressure signal the enqueue stage exists to expose.
	span.AddSince(obs.SpanEnqueue, tEnq)
}

// safeApply is the fan-out's last-resort panic boundary. An operator panic
// is already converted into the session's terminal error inside the
// session (see Session.feedDriver); this catches anything that escapes the
// delivery path so it fails the one session it came from instead of
// unwinding the committing goroutine or a shard worker and killing the
// process. Disjoint sessions on the same shard keep their deliveries.
func safeApply(sess *Session, apply func(*Session) error) (err error) {
	defer func() {
		if perr := exec.CapturePanic(recover()); perr != nil {
			sess.setErr(perr)
			err = perr
		}
	}()
	return apply(sess)
}

// Quiesce blocks until every commit acknowledged before the call has been
// applied by its shard worker — the read-your-writes barrier for one-shot
// queries and checkpoints. Lock-free (it waits on per-shard queue
// watermarks captured at call time); an immediate no-op in serial mode.
func (m *Manager) Quiesce() {
	if m.pool != nil {
		m.pool.Drain()
	}
}

// Close drains and stops the shard workers. Call only after all publishing
// has stopped; live subscriptions are not canceled. A no-op in serial mode,
// idempotent otherwise.
func (m *Manager) Close() {
	if m.pool != nil {
		m.pool.Close()
	}
}

// ShardStats snapshots every shard's queue depth and lag (nil in serial
// mode). Lock-free, so health probes stay responsive while a shard is
// stalled on a Block-policy subscriber.
func (m *Manager) ShardStats() []shard.Stat {
	if m.pool == nil {
		return nil
	}
	return m.pool.Stats()
}

// Len reports the number of resident pipelines without taking the routing
// lock, so liveness probes stay responsive during a blocked delivery.
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
