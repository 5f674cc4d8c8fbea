package live

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/types"
)

// Durable checkpoint/restore of the resident sessions. The contract —
// what a snapshot holds, why a superseded session is skipped, how restore
// re-derives keys and reads the legacy layout — is in the package
// documentation, "Checkpoint and restore".

// Sessions are written under sessionsSection with neither a key nor a mode:
// restore re-derives the key from the re-planned SQL, and every session
// retains the output changelog both renderings derive from. legacySection
// is the layout written while each session had a mode and was keyed by its
// SQL text; RestoreAll reads both.
const (
	sessionsSection = "live.Sessions"
	legacySection   = "live.Manager"
)

// RestoreQuery re-plans a checkpointed session's SQL against the restored
// catalog. The engine supplies it, because only the engine can resolve SQL
// against the catalog.
type RestoreQuery func(sql string) (Query, error)

// saveStateLocked writes one session; its retained output writes itself
// (output.save). Caller holds the manager's lock, so it owns the driver of
// this registered (hence open) session, and s.mu.
func (s *Session) saveStateLocked(enc *checkpoint.Encoder) error {
	enc.Section("live.Session")
	enc.String(s.cfg.Name)
	enc.Int(s.cfg.MaxRetainedRows)
	enc.Varint(s.eventsIn.Load())
	enc.Time(types.Time(s.wm.Load()))
	enc.Bool(s.out.end() > 0 || s.out.overflowed) // output was produced
	enc.Bool(false)                               // a retired flag; the slot keeps the record's layout
	enc.Bool(s.out.overflowed)
	if err := exec.SaveDriver(enc, s.driver); err != nil {
		return err
	}
	s.out.save(enc)
	return enc.Err()
}

// restoreSessionLocked reads one session, in either layout, and installs it
// under the plan key of its re-planned SQL. A session whose key is already
// taken is decoded and dropped: its readers reconnect to the survivor, which
// renders either mode. A legacy table session kept only its distinct rows,
// no changelog a stream reader could be handed, so its state is decoded and
// dropped too, and the session is rebuilt from the recorded history and
// caught up to the last heartbeat, as Subscribe builds one. Caller holds
// m.mu.
func (m *Manager) restoreSessionLocked(dec *checkpoint.Decoder, legacy bool, restore RestoreQuery) error {
	if legacy {
		_ = dec.String() // the SQL-text key
	}
	if err := dec.Expect("live.Session"); err != nil {
		return err
	}
	sql := dec.String()
	table := false
	if legacy {
		switch mode := dec.String(); mode {
		case "table":
			table = true
		case "stream":
		default:
			if dec.Err() == nil {
				return fmt.Errorf("live: unknown mode %q in checkpoint", mode)
			}
		}
	}
	maxRetain := dec.Int()
	eventsIn := dec.Varint()
	wm := dec.Time()
	_ = dec.Bool() // produced: the restored output says as much
	_ = dec.Bool() // the retired slot
	overflowed := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	q, err := restore(sql)
	if err != nil {
		return err
	}
	q.Config.MaxRetainedRows = maxRetain
	d, err := q.Load(dec)
	if err != nil {
		return err
	}
	s := newSession(d, q.Config)
	if table {
		err = s.out.renderer.LoadState(dec)
		skipTableAcc(dec)
	} else {
		err = s.out.load(dec, q.Config.EmitKeys, wm, overflowed)
		s.groups.Store(int64(s.out.renderer.Groups()))
	}
	if err != nil {
		return err
	}
	if err := dec.Err(); err != nil || (*m.plans.Load())[q.Key] != nil {
		return err
	}
	if table {
		if s, err = q.Create(); err != nil {
			return err
		}
		if err = m.registerLocked(s, q.History); err != nil {
			s.cancel()
			return err
		}
	} else {
		s.wm.Store(int64(wm))
		s.eventsIn.Store(eventsIn)
		s.outOfOrder.Store(!d.FedInMergeOrder())
		s.setObs(m.obsm) // restored pipelines count like registered ones
		m.installLocked(s)
	}
	m.shareLocked(q.Key, s)
	return nil
}

// skipTableAcc consumes a legacy table session's distinct-row accumulator:
// a presence flag, then its section, latest ptime, and each row with its net
// multiplicity.
func skipTableAcc(dec *checkpoint.Decoder) {
	if !dec.Bool() || dec.Expect("live.tableAcc") != nil {
		return
	}
	dec.Time()
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		dec.Row()
		dec.Int()
	}
}

// CheckpointAll writes the manager's routing clock and every session that
// holds its plan key under the ordering lock. The extra callback (the owning
// engine's catalog snapshot) runs first under the same lock, so catalog and
// pipeline state describe the same commit point. Under that lock no session
// is fed, closes or leaves the routing table, so every registered session is
// open and its driver quiescent; each session's mu is held while it is
// written, because its cursors' readers trim its retained output.
func (m *Manager) CheckpointAll(enc *checkpoint.Encoder, extra func(*checkpoint.Encoder) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if extra != nil {
		if err := extra(enc); err != nil {
			return err
		}
	}
	plans := *m.plans.Load()
	var sessions []*Session
	for _, s := range *m.sessions.Load() {
		if plans[s.key] == s { // a superseded session dies with its last cursor
			sessions = append(sessions, s)
		}
	}
	enc.Section(sessionsSection)
	enc.Time(types.Time(m.lastHeartbeat.Load()))
	enc.Uvarint(uint64(len(sessions)))
	for _, s := range sessions {
		s.mu.Lock()
		err := s.saveStateLocked(enc)
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return enc.Err()
}

// RestoreAll rebuilds the checkpointed sessions into this manager (normally
// freshly created), registering each under the plan key restore derives, so
// reconnecting subscribers attach to the restored pipeline instead of
// compiling a new one.
func (m *Manager) RestoreAll(dec *checkpoint.Decoder, restore RestoreQuery) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	legacy := false
	switch name := dec.Section(); {
	case dec.Err() != nil:
		return dec.Err()
	case name == legacySection:
		legacy = true
	case name != sessionsSection:
		return fmt.Errorf("live: unknown checkpoint section %q", name)
	}
	m.recordHeartbeatLocked(dec.Time())
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		if err := m.restoreSessionLocked(dec, legacy, restore); err != nil {
			return err
		}
	}
	return dec.Err()
}
