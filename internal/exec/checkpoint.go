package exec

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// This file implements durable checkpoint/restore for the pipeline; the
// operator contract is in doc.go, "Checkpoint and restore".

// stateSaver is implemented by operators with checkpointable state.
type stateSaver interface {
	SaveState(enc *checkpoint.Encoder)
	LoadState(dec *checkpoint.Decoder) error
}

// driverKindSerial tags a pipeline's state in the checkpoint stream.
const driverKindSerial = "serial"

// SaveDriver writes a driver's full state (embeddable: the caller owns the
// stream header and trailer). The driver must be a started, unclosed
// pipeline.
func SaveDriver(enc *checkpoint.Encoder, d Driver) error {
	p, ok := d.(*Pipeline)
	if !ok {
		return fmt.Errorf("exec: cannot checkpoint driver of type %T", d)
	}
	enc.Section("exec.Driver")
	enc.String(driverKindSerial)
	if err := p.saveState(enc); err != nil {
		return err
	}
	return enc.Err()
}

// LoadDriver compiles a fresh pipeline for pq and restores the checkpointed
// driver state into it. The returned driver is already started (Open is not
// re-run: open-time emissions happened before the checkpoint) and resumes
// accepting Feed/Advance exactly where the checkpointed one stopped.
func LoadDriver(dec *checkpoint.Decoder, pq *plan.PlannedQuery) (*Pipeline, error) {
	if err := dec.Expect("exec.Driver"); err != nil {
		return nil, err
	}
	kind := dec.String()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case driverKindSerial:
		p, err := Compile(pq)
		if err != nil {
			return nil, err
		}
		if err := p.loadState(dec); err != nil {
			return nil, err
		}
		p.opened = true
		p.outOfOrder = true // the merge-order bit is not checkpointed
		return p, nil
	case "partitioned":
		// Written by the key-partitioned executor, which no longer exists:
		// its state has no pipeline to go into.
		return nil, fmt.Errorf("exec: checkpoint holds a partitioned pipeline, and partitioned execution was removed; the snapshot cannot be restored")
	default:
		return nil, fmt.Errorf("exec: unknown driver kind %q in checkpoint", kind)
	}
}

// ---- pipeline-level save/load ----

// saveState writes the pipeline's operator states in build order.
func (p *Pipeline) saveState(enc *checkpoint.Encoder) error {
	if !p.opened || p.closed {
		return fmt.Errorf("exec: can only checkpoint a started, unclosed pipeline")
	}
	enc.Section("exec.Pipeline")
	saveOps(enc, p.allOps)
	return enc.Err()
}

// loadState restores the operator states into a freshly compiled pipeline.
func (p *Pipeline) loadState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("exec.Pipeline"); err != nil {
		return err
	}
	return loadOps(dec, p.allOps)
}

// saveOps writes each operator's state framed by a section naming its
// position and type, so a plan/checkpoint mismatch fails loudly at the first
// divergent operator. Stateless operators contribute only their frame.
func saveOps(enc *checkpoint.Encoder, ops []any) {
	enc.Uvarint(uint64(len(ops)))
	for i, op := range ops {
		enc.Section(fmt.Sprintf("op%d:%T", i, op))
		if s, ok := op.(stateSaver); ok {
			s.SaveState(enc)
		}
	}
}

// loadOps restores each operator's state; the compiled operator list must
// match the checkpoint's (same plan → same build order and types).
func loadOps(dec *checkpoint.Decoder, ops []any) error {
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(ops) {
		return fmt.Errorf("exec: checkpoint has %d operators, pipeline has %d (plan changed?)", n, len(ops))
	}
	for i, op := range ops {
		if err := dec.Expect(fmt.Sprintf("op%d:%T", i, op)); err != nil {
			return err
		}
		if s, ok := op.(stateSaver); ok {
			if err := s.LoadState(dec); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---- operator states ----

// SaveState implements stateSaver: the scan's clock and completion bit.
func (s *scanOp) SaveState(enc *checkpoint.Encoder) {
	enc.Time(s.lastPtime)
	enc.Bool(s.finished)
}

// LoadState implements stateSaver.
func (s *scanOp) LoadState(dec *checkpoint.Decoder) error {
	s.lastPtime = dec.Time()
	s.finished = dec.Bool()
	return dec.Err()
}

// SaveState implements stateSaver: an empty relation (the slot keeps the
// byte layout; the collector holds no relation), the output counters,
// watermark, and the output staged and not yet taken. A restored pipeline's
// Drain resumes exactly at the first undelivered event, which is what keeps
// the concatenation of pre- and post-restore drains identical to the
// uninterrupted sequence. (Standing queries publish and retain their output
// at the session layer, where retention policy lives, and save it there.)
func (c *Collector) SaveState(enc *checkpoint.Encoder) {
	tvr.NewRelation().SaveState(enc)
	enc.Int(c.outN)
	enc.Time(c.wm)
	tvr.SaveLog(enc, c.out.Staged())
}

// LoadState implements stateSaver. An older snapshot's relation slot holds
// the whole output relation; it is read past and discarded.
func (c *Collector) LoadState(dec *checkpoint.Decoder) error {
	if err := tvr.NewRelation().LoadState(dec); err != nil {
		return err
	}
	c.outN = dec.Int()
	c.wm = dec.Time()
	if err := tvr.LoadLog(dec, &c.out); err != nil {
		return err
	}
	return dec.Err()
}

// SaveState implements stateSaver: DISTINCT's per-row multiplicities in
// row-key order (the key is re-derived from the row at load).
func (d *distinctOp) SaveState(enc *checkpoint.Encoder) {
	tvr.SaveStore(enc, &d.counts, tvr.KeyOrder, func(sl int32) {
		rc := d.counts.At(sl)
		enc.Row(rc.row)
		enc.Int(rc.count)
	})
}

// LoadState implements stateSaver. Snapshots written before DISTINCT forgot
// rows at multiplicity 0 may hold such rows; they are read past and dropped.
func (d *distinctOp) LoadState(dec *checkpoint.Decoder) error {
	var rc rowCount
	return tvr.LoadStore(dec, &d.counts, func() ([]byte, bool, error) {
		rc = rowCount{row: dec.Row(), count: dec.Int()}
		d.keyBuf = rc.row.AppendKey(d.keyBuf[:0])
		return d.keyBuf, rc.count != 0, nil
	}, func(sl int32) error {
		*d.counts.At(sl) = rc
		return nil
	})
}

// save/load for the shared multi-input control-merge state.
func (m *mergingSink) saveMergeState(enc *checkpoint.Encoder) {
	enc.Section("mergingSink")
	enc.Int(m.finished)
	enc.Uvarint(uint64(len(m.wms)))
	for _, wm := range m.wms {
		enc.Time(wm)
	}
	enc.Time(m.mergedWM)
	enc.Bool(m.hasHB)
	enc.Time(m.lastHB)
}

func (m *mergingSink) loadMergeState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("mergingSink"); err != nil {
		return err
	}
	m.finished = dec.Int()
	n := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	if n != m.inputs {
		return fmt.Errorf("exec: checkpoint has %d merge inputs, operator has %d", n, m.inputs)
	}
	for i := range m.wms {
		m.wms[i] = dec.Time()
	}
	m.mergedWM = dec.Time()
	m.hasHB = dec.Bool()
	m.lastHB = dec.Time()
	return dec.Err()
}

// SaveState implements stateSaver (UNION ALL holds only merge state).
func (u *unionOp) SaveState(enc *checkpoint.Encoder) { u.saveMergeState(enc) }

// LoadState implements stateSaver.
func (u *unionOp) LoadState(dec *checkpoint.Decoder) error { return u.loadMergeState(dec) }

// SaveState implements stateSaver: both sides' multiplicities and the output
// multiplicity per row, in row-key order.
func (s *setOp) SaveState(enc *checkpoint.Encoder) {
	s.saveMergeState(enc)
	tvr.SaveStore(enc, &s.rows, tvr.KeyOrder, func(sl int32) {
		sr := s.rows.At(sl)
		enc.Row(sr.row)
		enc.Int(sr.l)
		enc.Int(sr.r)
		enc.Int(sr.out)
	})
}

// LoadState implements stateSaver. Rows whose three multiplicities are all 0
// (written before the operator forgot such rows) are read past and dropped.
func (s *setOp) LoadState(dec *checkpoint.Decoder) error {
	if err := s.loadMergeState(dec); err != nil {
		return err
	}
	var sr setRow
	return tvr.LoadStore(dec, &s.rows, func() ([]byte, bool, error) {
		sr = setRow{row: dec.Row(), l: dec.Int(), r: dec.Int(), out: dec.Int()}
		s.keyBuf = sr.row.AppendKey(s.keyBuf[:0])
		return s.keyBuf, sr.l != 0 || sr.r != 0 || sr.out != 0, nil
	}, func(sl int32) error {
		*s.rows.At(sl) = sr
		return nil
	})
}

// SaveState implements stateSaver: both join sides' bucketed rows with live
// and match counts. Buckets are written in equi-key order; *within* a bucket
// the row order is preserved — it determines the order matching pairs are
// emitted in, so it is part of the byte-identical contract.
func (j *joinOp) SaveState(enc *checkpoint.Encoder) {
	j.saveMergeState(enc)
	for _, side := range []*joinSide{j.left, j.right} {
		tvr.SaveStore(enc, &side.buckets, tvr.KeyOrder, func(bs int32) {
			rows := side.buckets.At(bs).rows
			enc.Uvarint(uint64(len(rows)))
			for _, jr := range rows {
				enc.Row(jr.row)
				enc.Int(jr.count)
				enc.Int(jr.matches)
			}
		})
	}
}

// LoadState implements stateSaver. A bucket's key is the equi-key of its
// first row; a bucket with no rows is read past.
func (j *joinOp) LoadState(dec *checkpoint.Decoder) error {
	if err := j.loadMergeState(dec); err != nil {
		return err
	}
	loadRow := func() joinRow { return joinRow{row: dec.Row(), count: dec.Int(), matches: dec.Int()} }
	for sideIdx, side := range []*joinSide{j.left, j.right} {
		var nr uint64
		var first joinRow
		err := tvr.LoadStore(dec, &side.buckets, func() ([]byte, bool, error) {
			if nr = dec.Uvarint(); nr == 0 {
				return nil, false, nil
			}
			first = loadRow()
			j.keyBuf = first.row.AppendKeyOf(j.keyBuf[:0], j.keysOf(sideIdx))
			return j.keyBuf, true, nil
		}, func(bs int32) error {
			bucket := side.buckets.At(bs)
			bucket.rows = append(bucket.rows, first)
			for ; nr > 1 && dec.Err() == nil; nr-- {
				bucket.rows = append(bucket.rows, loadRow())
			}
			for _, jr := range bucket.rows {
				side.size += jr.count
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// SaveState implements stateSaver: the session window's timestamps in
// first-seen order, each with its multiplicity and rows. Tumble/Hop are
// stateless but still write their (empty) frame so the format is uniform
// per operator type.
func (w *windowOp) SaveState(enc *checkpoint.Encoder) {
	tvr.SaveStore(enc, &w.times, tvr.FirstSeen, func(sl int32) {
		st := w.times.At(sl)
		enc.Time(st.ts)
		enc.Int(st.count)
		enc.Uvarint(uint64(len(st.rows)))
		for _, rr := range st.rows {
			enc.Row(rr.row)
			enc.Int(rr.count)
		}
	})
}

// LoadState implements stateSaver. Zero-count timestamps load like the
// others: their place in the order is part of the state.
func (w *windowOp) LoadState(dec *checkpoint.Decoder) error {
	var st sessionTime
	return tvr.LoadStore(dec, &w.times, func() ([]byte, bool, error) {
		if w.fn != plan.SessionFn {
			return nil, false, fmt.Errorf("exec: checkpoint has session-window state for a stateless window operator")
		}
		st = sessionTime{ts: dec.Time(), count: dec.Int()}
		for nr := dec.Uvarint(); nr > 0 && dec.Err() == nil; nr-- {
			st.rows = append(st.rows, rowRef{row: dec.Row(), count: dec.Int()})
		}
		return w.timeKey(st.ts), true, nil
	}, func(sl int32) error {
		*w.times.At(sl) = st
		return nil
	})
}

// ---- aggregate states ----

// saveAcc serializes one accumulator by kind; loadAcc mirrors it. The
// multiset-backed accumulators (MIN/MAX, DISTINCT) write their members in
// value-key order, and a load re-derives each key from its value. A MIN/MAX
// multiset of one distinct value is held inline (see minMaxAcc) and writes
// the same one entry a multiset of one would; loadAcc puts a one-entry
// multiset back inline.
func saveAcc(enc *checkpoint.Encoder, acc accumulator) {
	switch a := acc.(type) {
	case *countStarAcc:
		enc.Varint(a.n)
	case *countAcc:
		enc.Varint(a.n)
	case *sumAcc:
		enc.Varint(a.i)
		enc.Value(types.NewFloat(a.f))
		enc.Varint(a.n)
	case *avgAcc:
		enc.Varint(a.sumI)
		enc.Value(types.NewFloat(a.sumF))
		enc.Varint(a.n)
		enc.Bool(a.inexact)
	case *minMaxAcc:
		enc.Varint(a.n)
		enc.Bool(a.valid)
		enc.Value(a.current)
		if !a.keyed {
			// The inline value is the multiset's one entry, if it has any.
			if a.oneCount == 0 {
				enc.Uvarint(0)
				break
			}
			enc.Uvarint(1)
			enc.Value(a.one)
			enc.Int(a.oneCount)
			break
		}
		a.counts.save(enc)
	case *distinctAcc:
		a.counts.save(enc)
		saveAcc(enc, a.inner)
	}
}

// save writes the multiset's members in value-key order.
func (ms *multiset) save(enc *checkpoint.Encoder) {
	tvr.SaveStore(enc, &ms.members, tvr.KeyOrder, func(sl int32) {
		e := ms.members.At(sl)
		enc.Value(e.val)
		enc.Int(e.count)
	})
}

// load reads what save wrote into an empty multiset, re-deriving each
// member's key from its value.
func (ms *multiset) load(dec *checkpoint.Decoder) error {
	var vc valueCount
	return tvr.LoadStore(dec, &ms.members, func() ([]byte, bool, error) {
		vc = valueCount{val: dec.Value(), count: dec.Int()}
		ms.scratch = vc.val.AppendKey(ms.scratch[:0])
		return ms.scratch, true, nil
	}, func(sl int32) error {
		*ms.members.At(sl) = vc
		return nil
	})
}

func loadAcc(dec *checkpoint.Decoder, acc accumulator) error {
	switch a := acc.(type) {
	case *countStarAcc:
		a.n = dec.Varint()
	case *countAcc:
		a.n = dec.Varint()
	case *sumAcc:
		a.i = dec.Varint()
		f, err := loadFloatSum(dec)
		if err != nil {
			return err
		}
		a.f = f
		a.n = dec.Varint()
	case *avgAcc:
		a.sumI = dec.Varint()
		f, err := loadFloatSum(dec)
		if err != nil {
			return err
		}
		a.sumF = f
		a.n = dec.Varint()
		a.inexact = dec.Bool()
	case *minMaxAcc:
		a.n = dec.Varint()
		a.valid = dec.Bool()
		a.current = dec.Value()
		if err := a.counts.load(dec); err != nil {
			return err
		}
		if ms := &a.counts.members; ms.Len() == 1 {
			// Held inline, with no store behind it, as update holds it.
			one := ms.At(ms.First())
			a.one, a.oneCount = one.val, one.count
			a.counts = multiset{}
		}
		a.keyed = a.counts.members.Len() > 0
	case *distinctAcc:
		if err := a.counts.load(dec); err != nil {
			return err
		}
		return loadAcc(dec, a.inner)
	}
	return dec.Err()
}

// loadFloatSum reads the float running sum of a SUM or AVG, which saveAcc
// always writes as a DOUBLE: any other kind there is a corrupt snapshot.
func loadFloatSum(dec *checkpoint.Decoder) (float64, error) {
	v := dec.Value()
	if err := dec.Err(); err != nil {
		return 0, err
	}
	if v.Kind() != types.KindFloat64 {
		return 0, fmt.Errorf("exec: checkpoint holds a %v float running sum, want DOUBLE", v.Kind())
	}
	return v.Float(), nil
}

// Groups closed by a watermark are evicted, so only open groups are written,
// in first-seen order (the order their store iterates in); the completion
// heap is never serialized — LoadState re-registers every group with the
// operator's completionIndex, which rebuilds it from the stored key rows and
// renumbers the groups. Each group record still carries the closed flag of
// the format's earlier writers (always false now): snapshots that predate
// eviction hold closed groups as tombstones, which LoadState reads past and
// discards. A snapshot that lists one group twice is corrupt.

// SaveState implements stateSaver: the watermark, late/freed counters, and
// every open group in first-seen order with its key row, live-row count,
// accumulator states, and last emitted output row.
func (a *aggOp) SaveState(enc *checkpoint.Encoder) {
	enc.Time(a.wm)
	enc.Int(a.lateDrop)
	enc.Int(a.idx.freed)
	tvr.SaveStore(enc, &a.groups, tvr.FirstSeen, func(s int32) {
		g := a.groups.At(s)
		enc.Row(g.keyRow)
		enc.Int(g.n)
		enc.Bool(false) // closed
		enc.Row(g.outRow)
		for _, acc := range a.accsOf(s) {
			saveAcc(enc, acc)
		}
	})
}

// LoadState implements stateSaver.
func (a *aggOp) LoadState(dec *checkpoint.Decoder) error {
	// A global aggregate's Open already created its one group; restore
	// replaces it wholesale.
	a.groups = tvr.Store[aggGroup]{}
	a.idx.reset()
	a.runValid = false
	a.wm = dec.Time()
	a.lateDrop = dec.Int()
	a.idx.freed = dec.Int()
	var keyRow, outRow types.Row
	var gn int
	return tvr.LoadStore(dec, &a.groups, func() ([]byte, bool, error) {
		keyRow, gn = dec.Row(), dec.Int()
		closed := dec.Bool()
		outRow = dec.Row()
		a.keyBuf = keyRow.AppendKey(a.keyBuf[:0])
		return a.keyBuf, !closed, nil
	}, func(s int32) error {
		a.openGroup(s, keyRow)
		g := a.groups.At(s)
		g.n, g.outRow = gn, outRow
		for _, acc := range a.accsOf(s) {
			if err := loadAcc(dec, acc); err != nil {
				return err
			}
		}
		return nil
	})
}

// ---- EMIT materialization states ----

// SaveState implements stateSaver: per open event-time group, the buffered
// bag awaiting watermark completion, in tvr.Relation's section and order.
func (e *emitAfterWatermarkOp) SaveState(enc *checkpoint.Encoder) {
	enc.Time(e.wm)
	enc.Int(e.late)
	enc.Int(e.idx.freed)
	tvr.SaveStore(enc, &e.groups, tvr.FirstSeen, func(gs int32) {
		g := e.groups.At(gs)
		enc.Row(g.sample)
		enc.Bool(false) // closed
		enc.Section("tvr.Relation")
		enc.Uvarint(uint64(g.entries))
		for rs := g.head; rs >= 0; rs = e.rows.At(rs).next {
			r := e.rows.At(rs)
			enc.Row(r.row)
			enc.Uvarint(uint64(r.count))
		}
	})
}

// LoadState implements stateSaver. Each group's bag is read under the rules
// of tvr.Relation.LoadState: a row with no multiplicity is corrupt.
func (e *emitAfterWatermarkOp) LoadState(dec *checkpoint.Decoder) error {
	e.wm = dec.Time()
	e.late = dec.Int()
	e.idx.freed = dec.Int()
	var sample types.Row
	return tvr.LoadStore(dec, &e.groups, func() ([]byte, bool, error) {
		sample = dec.Row()
		closed := dec.Bool()
		e.keyBuf = sample.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
		return e.keyBuf, !closed, nil
	}, func(gs int32) error {
		e.openGroup(gs, sample)
		if err := dec.Expect("tvr.Relation"); err != nil {
			return err
		}
		var row types.Row
		var count int
		return tvr.LoadStore(dec, &e.rows, func() ([]byte, bool, error) {
			row, count = dec.Row(), int(dec.Uvarint())
			if dec.Err() == nil && (row == nil || count <= 0) {
				return nil, false, fmt.Errorf("exec: corrupt EMIT AFTER WATERMARK row in checkpoint")
			}
			return e.rowKey(gs, row), true, nil
		}, func(rs int32) error {
			e.appendRow(gs, rs, row, count)
			return nil
		})
	})
}

// SaveState implements stateSaver: per open group the last-materialized and
// live relations, plus the pending processing-time timer queue in its array
// order; timers reference their group by its event-time key. A timer whose
// group the watermark closed is a no-op (see delayGroup) and is not written;
// LoadState re-heapifies, and (deadline, seq) being a total order makes the
// pop sequence independent of the array layout.
func (e *emitAfterDelayOp) SaveState(enc *checkpoint.Encoder) {
	enc.Time(e.wm)
	enc.Int(e.late)
	enc.Int(e.idx.freed)
	enc.Int(e.seq)
	tvr.SaveStore(enc, &e.groups, tvr.FirstSeen, func(gs int32) {
		g := e.groups.At(gs)
		enc.Row(g.sample)
		enc.Bool(g.armed)
		enc.Bool(false) // closed
		g.lastMat.SaveState(enc)
		g.cur.SaveState(enc)
	})
	pending := 0
	for _, t := range e.timers {
		if e.pending(t) {
			pending++
		}
	}
	enc.Uvarint(uint64(pending))
	for _, t := range e.timers {
		if !e.pending(t) {
			continue
		}
		enc.Time(t.at)
		enc.Int(t.seq)
		enc.String(string(e.groups.Key(t.slot)))
	}
}

// LoadState implements stateSaver.
func (e *emitAfterDelayOp) LoadState(dec *checkpoint.Decoder) error {
	e.wm = dec.Time()
	e.late = dec.Int()
	e.idx.freed = dec.Int()
	e.seq = dec.Int()
	closedKeys := map[string]bool{} // tombstones of a pre-eviction snapshot
	var sample types.Row
	var armed bool
	err := tvr.LoadStore(dec, &e.groups, func() ([]byte, bool, error) {
		sample, armed = dec.Row(), dec.Bool()
		closed := dec.Bool()
		e.keyBuf = sample.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
		if closed {
			closedKeys[string(e.keyBuf)] = true
		}
		return e.keyBuf, !closed, nil
	}, func(gs int32) error {
		e.openGroup(gs, sample)
		g := e.groups.At(gs)
		g.armed = armed
		if err := g.lastMat.LoadState(dec); err != nil {
			return err
		}
		return g.cur.LoadState(dec)
	})
	if err != nil {
		return err
	}
	nt := int(dec.Uvarint())
	if err := dec.Err(); err != nil {
		return err
	}
	for i := 0; i < nt; i++ {
		deadline := dec.Time()
		seq := dec.Int()
		gk := dec.String()
		if err := dec.Err(); err != nil {
			return err
		}
		gs := e.groups.Find([]byte(gk))
		if gs < 0 {
			if closedKeys[gk] {
				continue // stale timer of a closed group: a no-op
			}
			return fmt.Errorf("exec: checkpoint timer references unknown group")
		}
		e.groups.At(gs).timer = seq
		e.timers = append(e.timers, dueGroup{slot: gs, seq: seq, at: deadline})
	}
	e.timers.init()
	return dec.Err()
}
