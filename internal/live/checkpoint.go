package live

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Durable checkpoint/restore for the standing-query subsystem. A checkpoint
// captures every *shareable* resident session — the driver's full operator
// state plus the session's rendering state (stream-version counters, the
// retained output used for late-attach hand-offs) — under the manager's
// ordering lock, so the snapshot is consistent with a single commit point:
// no published change can be half-applied across sessions or fall between
// the catalog (serialized by the owning engine through the extra callback)
// and the pipelines.
//
// Exclusive sessions are deliberately NOT checkpointed: their only
// subscriber is a live connection that does not survive the process, they
// retain no output for late attach, and a restored copy could never be
// attached to again — it would be a leak, not a recovery.
//
// A restored session is resident with zero cursors, exactly like a session
// between registration and its first Attach: subscribers that reconnect
// attach to it and receive the snapshot hand-off synthesized from the
// restored retained output — byte-identical to what a dedicated subscription
// opened at the same instant would replay — with no history rescan.

// ParseMode converts a Mode.String() value back to the Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "stream":
		return Stream, nil
	case "table":
		return Table, nil
	default:
		return 0, fmt.Errorf("live: unknown mode %q in checkpoint", s)
	}
}

// RestoreDriver rebuilds a checkpointed session's execution state: it plans
// sql, restores the driver from the decoder (exec.LoadDriver), and returns
// the driver plus the session Config derived from the plan. The engine layer
// supplies it, because only the engine can resolve SQL against the catalog.
type RestoreDriver func(sql string, mode Mode, dec *checkpoint.Decoder) (exec.Driver, Config, error)

// saveStateLocked writes one session. Caller holds ingestMu and mu (the
// manager's checkpoint pass locks every open session first), and the session
// is not closed.
func (s *Session) saveStateLocked(enc *checkpoint.Encoder) error {
	enc.Section("live.Session")
	enc.String(s.cfg.Name)
	enc.String(s.cfg.Mode.String())
	enc.Int(s.cfg.MaxRetainedRows)
	enc.Varint(s.eventsIn.Load())
	enc.Time(types.Time(s.wm.Load()))
	enc.Bool(s.produced)
	enc.Bool(s.noRetain)
	enc.Bool(s.overflowed)
	if err := exec.SaveDriver(enc, s.driver); err != nil {
		return err
	}
	s.renderer.SaveState(enc)
	if s.cfg.Mode == Table {
		enc.Bool(s.tableSnap != nil)
		if s.tableSnap != nil {
			s.tableSnap.saveState(enc)
		}
	} else {
		tvr.SaveChangelog(enc, s.outLog)
	}
	return enc.Err()
}

// restoreSession reads one session written by saveStateLocked, rebuilding
// the driver through the engine-supplied callback.
func restoreSession(dec *checkpoint.Decoder, restore RestoreDriver) (*Session, error) {
	if err := dec.Expect("live.Session"); err != nil {
		return nil, err
	}
	sql := dec.String()
	modeStr := dec.String()
	maxRetain := dec.Int()
	eventsIn := dec.Varint()
	wm := dec.Time()
	produced := dec.Bool()
	noRetain := dec.Bool()
	overflowed := dec.Bool()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	mode, err := ParseMode(modeStr)
	if err != nil {
		return nil, err
	}
	d, cfg, err := restore(sql, mode, dec)
	if err != nil {
		return nil, err
	}
	cfg.Name = sql
	cfg.Mode = mode
	cfg.MaxRetainedRows = maxRetain
	s := &Session{
		cfg:        cfg,
		driver:     d,
		renderer:   tvr.NewStreamRenderer(cfg.EmitKeys),
		sources:    make(map[string]bool, len(cfg.Sources)),
		produced:   produced,
		noRetain:   noRetain,
		overflowed: overflowed,
	}
	s.parkCond = sync.NewCond(&s.mu)
	s.shard.Store(-1)
	s.wm.Store(int64(wm))
	s.eventsIn.Store(eventsIn)
	for _, name := range cfg.Sources {
		s.sources[strings.ToLower(name)] = true
	}
	if err := s.renderer.LoadState(dec); err != nil {
		return nil, err
	}
	if mode == Table {
		if dec.Bool() {
			s.tableSnap = newTableAcc()
			if err := s.tableSnap.loadState(dec); err != nil {
				return nil, err
			}
		}
	} else {
		log, err := tvr.LoadChangelog(dec)
		if err != nil {
			return nil, err
		}
		s.outLog = log
	}
	return s, dec.Err()
}

// saveState writes the table accumulator in its first-appearance order (the
// order its diffs render in — part of the byte-identical contract).
func (a *tableAcc) saveState(enc *checkpoint.Encoder) {
	enc.Section("live.tableAcc")
	enc.Time(a.ptime)
	enc.Uvarint(uint64(len(a.order)))
	for _, k := range a.order {
		r := a.counts[k]
		enc.Row(r.row)
		enc.Int(r.n)
	}
}

// loadState rebuilds the accumulator; the map keys are re-derived from the
// rows.
func (a *tableAcc) loadState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("live.tableAcc"); err != nil {
		return err
	}
	a.ptime = dec.Time()
	n := int(dec.Uvarint())
	for i := 0; i < n; i++ {
		row := dec.Row()
		rn := dec.Int()
		if err := dec.Err(); err != nil {
			return err
		}
		k := row.Key()
		a.counts[k] = &rowAcc{row: row, n: rn}
		a.order = append(a.order, k)
	}
	return dec.Err()
}

// CheckpointAll writes the manager's routing clock and every shareable open
// session under the ordering lock. The extra callback (the owning engine's
// catalog snapshot) runs first under the same lock, so catalog and pipeline
// state describe the same commit point. Every open session's locks are taken
// before any bytes are written, so a session cannot close or deliver halfway
// through the snapshot.
func (m *Manager) CheckpointAll(enc *checkpoint.Encoder, extra func(*checkpoint.Encoder) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Sharded mode: with the ordering lock held no new commit can enter, so
	// draining the shard queues here brings every session exactly up to the
	// last acknowledged commit — the single commit point the snapshot
	// describes. The drain MUST run before any session lock is taken below:
	// a shard worker holds ingestMu while applying a delivery, so draining
	// after would deadlock.
	if m.pool != nil {
		m.pool.Drain()
	}
	if extra != nil {
		if err := extra(enc); err != nil {
			return err
		}
	}
	type entry struct {
		key  string
		sess *Session
	}
	var open []entry
	var held []*Session
	defer func() {
		for _, s := range held {
			s.mu.Unlock()
			s.ingestMu.Unlock()
		}
	}()
	for _, id := range m.order {
		key, shared := m.keys[id]
		if !shared {
			continue // exclusive/dedicated sessions die with their subscriber
		}
		s := m.subs[id]
		s.ingestMu.Lock()
		s.mu.Lock()
		held = append(held, s)
		if !s.closed {
			open = append(open, entry{key: key, sess: s})
		}
	}
	enc.Section("live.Manager")
	enc.Time(m.seq.LastHeartbeat())
	enc.Uvarint(uint64(len(open)))
	for _, e := range open {
		enc.String(e.key)
		if err := e.sess.saveStateLocked(enc); err != nil {
			return err
		}
	}
	return enc.Err()
}

// RestoreAll rebuilds the checkpointed sessions into this manager (normally
// freshly created), registering each under its original plan key so
// reconnecting subscribers attach to the restored pipeline instead of
// compiling a new one.
func (m *Manager) RestoreAll(dec *checkpoint.Decoder, restore RestoreDriver) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := dec.Expect("live.Manager"); err != nil {
		return err
	}
	m.seq.RecordHeartbeat(dec.Time())
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		key := dec.String()
		if err := dec.Err(); err != nil {
			return err
		}
		sess, err := restoreSession(dec, restore)
		if err != nil {
			return err
		}
		sess.setObs(m.obsm) // restored pipelines count like registered ones
		id := m.nextID
		m.nextID++
		m.installLocked(id, sess) // routing table + shard placement
		m.plans[key] = sess
		m.keys[id] = key
	}
	return dec.Err()
}
