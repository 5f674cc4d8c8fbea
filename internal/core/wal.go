package core

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/wal"
)

// WAL record kinds. Stable wire tags, independent of any in-memory enum.
const (
	walRecPublish   = "P" // one committed changelog batch on one relation
	walRecHeartbeat = "H" // processing-time advance across all sessions
	walRecRegister  = "R" // relation registration (stream or table)
	walRecNoop      = "N" // durable no-op, the degraded-recovery probe
)

// AttachWAL starts logging every subsequent commit to l, which the engine
// then owns: Close closes it. Open attaches its own log; attach by hand only
// to an engine built by NewEngine, after any restore and replay (an engine
// with a log attached refuses to replay, so a replayed record cannot be
// logged twice).
func (e *Engine) AttachWAL(l *wal.Writer) error {
	if l == nil {
		return fmt.Errorf("core: AttachWAL needs a non-nil log")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wal != nil {
		return fmt.Errorf("core: a write-ahead log is already attached")
	}
	e.wal = l
	return nil
}

// WALSeq returns the engine's last committed WAL sequence number: the
// sequence the latest snapshot covers through, and the point replay resumes
// after. Zero means no logged commits yet.
func (e *Engine) WALSeq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.walSeq
}

// walAppendLocked logs one record under the catalog lock, advancing the
// commit sequence only on success. Called with e.mu held, after validation
// and before any state change: a log failure must leave the catalog
// untouched and suppress the fan-out, or an acknowledged-but-unlogged
// change would vanish on restart.
func (e *Engine) walAppendLocked(write func(*checkpoint.Encoder) error) error {
	if e.wal == nil {
		return nil
	}
	seq := e.walSeq + 1
	err := e.wal.Append(seq, write)
	e.noteWALResultLocked(err)
	if err != nil {
		return fmt.Errorf("core: write-ahead log append: %w", err)
	}
	e.walSeq = seq
	return nil
}

// walRecord is one decoded WAL record, held fully decoded and
// integrity-verified before any of it is applied.
type walRecord struct {
	kind      string
	name      string        // publish, register
	log       tvr.Changelog // publish
	pt        types.Time    // heartbeat
	unbounded bool          // register
	schema    *types.Schema // register
}

// replayWALRecord is Open's wal.Replay callback: records at or below the
// engine's committed sequence are already covered by the restored snapshot
// and are skipped without decoding (the log's frame CRC has verified their
// bytes); later records are decoded, integrity-checked, and re-published
// through the normal commit path. The log must not be attached yet.
func (e *Engine) replayWALRecord(seq uint64, dec *checkpoint.Decoder) error {
	e.mu.RLock()
	attached, cur := e.wal != nil, e.walSeq
	e.mu.RUnlock()
	if attached {
		return fmt.Errorf("core: cannot replay WAL records into an engine with a log attached")
	}
	if seq <= cur {
		return nil
	}
	if seq != cur+1 {
		return fmt.Errorf("core: WAL record seq %d does not follow engine seq %d", seq, cur)
	}

	rec, err := decodeWALRecord(dec)
	if err != nil {
		return fmt.Errorf("core: WAL record %d: %w", seq, err)
	}
	switch rec.kind {
	case walRecPublish:
		err = e.AppendLog(rec.name, rec.log)
	case walRecHeartbeat:
		err = e.Heartbeat(rec.pt)
	case walRecRegister:
		err = e.Before(time.Time{}).register(rec.name, rec.schema, rec.unbounded)
	case walRecNoop:
		// A degraded-recovery probe: durable by design, applies nothing.
	}
	if err != nil {
		return fmt.Errorf("core: replaying WAL record %d: %w", seq, err)
	}
	e.mu.Lock()
	e.walSeq = seq
	e.mu.Unlock()
	return nil
}

// decodeWALRecord reads and fully verifies one record body (the decoder is
// positioned just past the sequence number; Close checks the record's own
// trailer) without touching engine state.
func decodeWALRecord(dec *checkpoint.Decoder) (walRecord, error) {
	var rec walRecord
	rec.kind = dec.String()
	if err := dec.Err(); err != nil {
		return rec, err
	}
	switch rec.kind {
	case walRecPublish:
		rec.name = dec.String()
		log, err := tvr.LoadChangelog(dec)
		if err != nil {
			return rec, err
		}
		rec.log = log
	case walRecHeartbeat:
		rec.pt = dec.Time()
	case walRecRegister:
		rec.name = dec.String()
		rec.unbounded = dec.Bool()
		schema, err := loadSchema(dec)
		if err != nil {
			return rec, err
		}
		rec.schema = schema
	case walRecNoop:
		// No body.
	default:
		return rec, fmt.Errorf("unknown record kind %q", rec.kind)
	}
	if err := dec.Close(); err != nil {
		return rec, err
	}
	return rec, nil
}
