package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/exec"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Durable engine checkpoints: CheckpointAll snapshots the catalog (schemas +
// recorded changelogs + monotonicity cursors) and every shareable resident
// standing-query pipeline in one consistent stream; RestoreAll rebuilds a
// fresh engine to exactly that commit point, with every restored pipeline
// resuming where it stopped — no history rescan. Both run under the live
// manager's ordering lock, the same lock every PublishSpan commits under, so the
// snapshot can never observe a half-routed change.

// saveAll and loadAll are the single definitions of the checkpoint stream's
// section order (WAL position + catalog, then manager + sessions); every
// public entry point delegates here so the writer and both readers cannot
// drift.
func (e *Engine) saveAll(enc *checkpoint.Encoder) error {
	return e.saveAllSeq(enc, nil)
}

// saveAllSeq is saveAll with the snapshot's WAL position reported back to
// the caller (when seqOut is non-nil): the sequence number the snapshot
// covers through, captured under the same locks as the state itself, which
// is exactly how far the write-ahead log may be truncated once the snapshot
// is durable.
func (e *Engine) saveAllSeq(enc *checkpoint.Encoder, seqOut *uint64) error {
	return e.live.CheckpointAll(enc, func(enc *checkpoint.Encoder) error {
		return e.saveCatalog(enc, seqOut)
	})
}

func (e *Engine) loadAll(dec *checkpoint.Decoder) error {
	if err := e.loadCatalog(dec); err != nil {
		return err
	}
	return e.live.RestoreAll(dec, e.restoreSessionDriver)
}

// CheckpointAll writes the engine's full durable state to w.
func (e *Engine) CheckpointAll(w io.Writer) error {
	enc := checkpoint.NewEncoder(w)
	if err := e.saveAll(enc); err != nil {
		return err
	}
	return enc.Close()
}

// CheckpointFile writes the engine checkpoint to path with a crash-safe
// atomic swap (temp file + fsync + rename + directory fsync), returning the
// encoded size and the WAL sequence number the snapshot covers through —
// once this call returns, the log may be truncated through that sequence.
func (e *Engine) CheckpointFile(path string) (int64, uint64, error) {
	t0 := time.Now()
	var seq uint64
	n, err := checkpoint.WriteFileAtomicFS(e.fs, path, func(enc *checkpoint.Encoder) error {
		return e.saveAllSeq(enc, &seq)
	})
	e.metrics.noteCheckpoint(n, time.Since(t0), err)
	if err != nil {
		return 0, 0, err
	}
	return n, seq, nil
}

// RestoreAll rebuilds the engine from a checkpoint stream. The engine must
// be empty (no relations registered, no live sessions): restore is a
// process-startup operation, not a merge.
func (e *Engine) RestoreAll(r io.Reader) error {
	dec, err := checkpoint.NewDecoder(r)
	if err != nil {
		return err
	}
	if err := e.loadAll(dec); err != nil {
		return err
	}
	return dec.Close()
}

// RestoreFile is RestoreAll over a checkpoint file written by CheckpointFile.
func (e *Engine) RestoreFile(path string) error {
	return checkpoint.ReadFileFS(e.fs, path, e.loadAll)
}

// saveCatalog serializes the engine's WAL position and every registered
// relation: schema, recorded changelog, and the ptime/watermark
// monotonicity cursors. Called by the live manager under its ordering lock,
// so the WAL position, the catalog, and the session states all describe the
// same commit point — which is what lets restore skip replayed WAL records
// by sequence number alone.
func (e *Engine) saveCatalog(enc *checkpoint.Encoder, seqOut *uint64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	enc.Section("core.wal")
	enc.Uvarint(e.walSeq)
	if seqOut != nil {
		*seqOut = e.walSeq
	}
	enc.Section("core.catalog")
	keys := make([]string, 0, len(e.rels))
	for k := range e.rels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		rel := e.rels[k]
		enc.String(rel.meta.Name)
		enc.Bool(rel.meta.Unbounded)
		saveSchema(enc, rel.meta.Schema)
		enc.Time(rel.lastPtime)
		enc.Time(rel.lastWM)
		tvr.SaveChangelog(enc, rel.log)
	}
	return enc.Err()
}

// loadCatalog rebuilds the catalog into an empty engine.
func (e *Engine) loadCatalog(dec *checkpoint.Decoder) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.rels) > 0 {
		return fmt.Errorf("core: RestoreAll needs an empty engine (have %d relations)", len(e.rels))
	}
	if err := dec.Expect("core.wal"); err != nil {
		return err
	}
	e.walSeq = dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if err := dec.Expect("core.catalog"); err != nil {
		return err
	}
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		name := dec.String()
		unbounded := dec.Bool()
		schema, err := loadSchema(dec)
		if err != nil {
			return err
		}
		lastPtime := dec.Time()
		lastWM := dec.Time()
		log, err := tvr.LoadChangelog(dec)
		if err != nil {
			return err
		}
		e.rels[strings.ToLower(name)] = &relation{
			meta:      plan.Relation{Name: name, Schema: schema, Unbounded: unbounded},
			log:       log,
			lastPtime: lastPtime,
			lastWM:    lastWM,
		}
	}
	return dec.Err()
}

// restoreSessionDriver is the live.RestoreDriver callback: re-plan the
// checkpointed SQL against the (already restored) catalog and rehydrate the
// driver state into the freshly compiled pipeline.
func (e *Engine) restoreSessionDriver(sql string, mode live.Mode, dec *checkpoint.Decoder) (exec.Driver, live.Config, error) {
	pq, err := e.plan(sql)
	if err != nil {
		return nil, live.Config{}, fmt.Errorf("core: re-planning checkpointed query: %w", err)
	}
	d, err := exec.LoadDriver(dec, pq)
	if err != nil {
		return nil, live.Config{}, err
	}
	return d, live.Config{
		Name:     sql,
		Mode:     mode,
		Schema:   pq.Root.Schema(),
		EmitKeys: pq.EmitKeyIdxs,
		Sources:  scanNames(pq.Root),
	}, nil
}

// ---- schema and log wire helpers ----

// kindNames maps type kinds to stable wire names (the in-memory enum values
// are not part of the format).
var kindNames = map[types.Kind]string{
	types.KindBool:      "BOOLEAN",
	types.KindInt64:     "BIGINT",
	types.KindFloat64:   "DOUBLE",
	types.KindString:    "VARCHAR",
	types.KindTimestamp: "TIMESTAMP",
	types.KindInterval:  "INTERVAL",
}

func saveSchema(enc *checkpoint.Encoder, sch *types.Schema) {
	enc.Uvarint(uint64(sch.Len()))
	for _, c := range sch.Cols {
		enc.String(c.Name)
		enc.String(kindNames[c.Kind])
		enc.Bool(c.EventTime)
		enc.Duration(c.WmOffset)
		enc.Bool(c.Windowed)
	}
}

func loadSchema(dec *checkpoint.Decoder) (*types.Schema, error) {
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return nil, err
	}
	cols := make([]types.Column, 0, checkpoint.CapHint(uint64(n)))
	for i := 0; i < n; i++ {
		name := dec.String()
		kindName := dec.String()
		eventTime := dec.Bool()
		wmOffset := dec.Duration()
		windowed := dec.Bool()
		if err := dec.Err(); err != nil {
			return nil, err
		}
		var kind types.Kind
		found := false
		for k, kn := range kindNames {
			if kn == kindName {
				kind, found = k, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: unknown column kind %q in checkpoint", kindName)
		}
		cols = append(cols, types.Column{Name: name, Kind: kind, EventTime: eventTime, WmOffset: wmOffset, Windowed: windowed})
	}
	return types.NewSchema(cols...), nil
}
