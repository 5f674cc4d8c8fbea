package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Engine snapshots: CheckpointAll snapshots the catalog (schemas + recorded
// changelogs + monotonicity cursors) and every shareable resident
// standing-query pipeline in one consistent stream, under the live manager's
// ordering lock; RestoreAll rebuilds a fresh engine to exactly that commit
// point, every restored pipeline resuming where it stopped. Open and
// Checkpoint keep them in the data directory.

// saveAll and loadAll are the single definitions of the checkpoint stream's
// section order (WAL position + catalog, then manager + sessions); every
// public entry point delegates here so the writer and both readers cannot
// drift. saveAll reports the snapshot's WAL position in seqOut when it is
// non-nil: captured under the same locks as the state, it is how far the log
// may be truncated once the snapshot is durable.
func (e *Engine) saveAll(enc *checkpoint.Encoder, seqOut *uint64) error {
	return e.live.CheckpointAll(enc, func(enc *checkpoint.Encoder) error {
		return e.saveCatalog(enc, seqOut)
	})
}

func (e *Engine) loadAll(dec *checkpoint.Decoder) error {
	if err := e.loadCatalog(dec); err != nil {
		return err
	}
	return e.live.RestoreAll(dec, e.restoreQuery)
}

// CheckpointAll writes the engine's full durable state to w.
func (e *Engine) CheckpointAll(w io.Writer) error {
	enc := checkpoint.NewEncoder(w)
	if err := e.saveAll(enc, nil); err != nil {
		return err
	}
	return enc.Close()
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
		tvr.SaveLog(enc, rel.log.Since(0))
	}
	return enc.Err()
}

// loadCatalog rebuilds the catalog into an empty engine. A snapshot that
// lists one relation twice (names compare case-insensitively) is corrupt.
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
		rel := &relation{
			meta:      plan.Relation{Name: name, Schema: schema, Unbounded: unbounded},
			lastPtime: dec.Time(),
			lastWM:    dec.Time(),
		}
		if err := tvr.LoadLog(dec, &rel.log); err != nil {
			return err
		}
		key := strings.ToLower(name)
		if _, dup := e.rels[key]; dup {
			return fmt.Errorf("core: checkpoint lists relation %q twice", name)
		}
		rel.log.Publish()
		e.history.Add(int64(rel.log.Len()))
		e.rels[key] = rel
	}
	return dec.Err()
}

// restoreQuery is the live.RestoreQuery callback: re-plan the checkpointed
// SQL against the (already restored) catalog.
func (e *Engine) restoreQuery(sql string) (live.Query, error) {
	pq, err := e.plan(sql)
	if err != nil {
		return live.Query{}, fmt.Errorf("core: re-planning checkpointed query: %w", err)
	}
	return e.standing(sql, pq), nil
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
