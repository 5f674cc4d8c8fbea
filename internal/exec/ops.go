package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/window"
)

// scanOp is a pipeline root: the driver pushes source events into it. It
// enforces AS OF SYSTEM TIME snapshot bounds and completes bounded inputs
// with a final watermark so downstream completeness semantics work on
// recorded tables exactly as the paper describes (Section 4: "the same query
// can be evaluated without watermarks over a table that was recorded from
// the bid stream, yielding the same result").
type scanOp struct {
	out       sink
	asOf      *types.Time
	bounded   bool
	lastPtime types.Time
	finished  bool
	pend      []tvr.Event // asOf filtering scratch, reused across batches
}

// PushBatch implements sink. Without a snapshot bound the batch passes
// through untouched (zero copy). With one, events beyond the horizon are
// dropped: the relation is frozen, but heartbeats still pass, since the
// processing-time clock advances for downstream timers.
func (s *scanOp) PushBatch(evs []tvr.Event) error {
	if len(evs) == 0 {
		return nil
	}
	s.lastPtime = max(s.lastPtime, evs[len(evs)-1].Ptime)
	if s.asOf == nil {
		return s.out.PushBatch(evs)
	}
	for _, ev := range evs {
		if ev.Ptime <= *s.asOf || ev.Kind == tvr.Heartbeat {
			s.pend = append(s.pend, ev)
		}
	}
	return flush(s.out, &s.pend)
}

func (s *scanOp) Finish() error {
	if s.finished {
		return nil
	}
	s.finished = true
	if s.bounded || s.asOf != nil {
		// A bounded relation (table or snapshot) is complete: assert it.
		if err := s.out.PushBatch([]tvr.Event{tvr.WatermarkEvent(s.lastPtime, types.MaxTime)}); err != nil {
			return err
		}
	}
	return s.out.Finish()
}

// valuesOp emits a constant relation at open time. A constant relation is
// complete from the start, so its rows are followed by a final watermark,
// the way a bounded scan completes at Finish; Close finishes it with the
// scans.
type valuesOp struct {
	out  sink
	rows []types.Row
}

func (v *valuesOp) Open() error {
	evs := make([]tvr.Event, 0, len(v.rows)+1)
	for _, r := range v.rows {
		evs = append(evs, tvr.InsertEvent(types.MinTime, r))
	}
	return v.out.PushBatch(append(evs, tvr.WatermarkEvent(types.MinTime, types.MaxTime)))
}

func (v *valuesOp) Finish() error { return v.out.Finish() }

// filterOp keeps rows whose condition evaluates to TRUE. Because the
// predicate is deterministic, inserts and deletes filter identically and
// retraction consistency is preserved.
type filterOp struct {
	out  sink
	cond plan.Scalar
	pend []tvr.Event // surviving-event scratch, reused across batches
}

// PushBatch implements sink: evaluate the predicate across the batch, then
// hand the survivors (data that passed plus all control events, in order)
// downstream in one dispatch.
func (f *filterOp) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if ev.IsData() {
			ok, err := plan.EvalBool(f.cond, ev.Row)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		f.pend = append(f.pend, ev)
	}
	return flush(f.out, &f.pend)
}

func (f *filterOp) Finish() error { return f.out.Finish() }

// projectOp maps each row through the projection expressions.
type projectOp struct {
	out   sink
	exprs []plan.Scalar
	pend  []tvr.Event // output-event scratch, reused across batches
}

// PushBatch implements sink. Output rows for the whole batch are carved
// out of one block allocation: the rows are immutable once emitted (and a
// batch's output is drained together), so sharing a backing array is safe and
// replaces N row allocations with one.
func (p *projectOp) PushBatch(evs []tvr.Event) error {
	nData := 0
	for i := range evs {
		if evs[i].IsData() {
			nData++
		}
	}
	width := len(p.exprs)
	var block types.Row
	if nData > 0 && width > 0 {
		block = make(types.Row, nData*width)
	}
	off := 0
	for _, ev := range evs {
		if ev.IsData() {
			row := block[off : off+width : off+width]
			off += width
			for i, e := range p.exprs {
				v, err := e.Eval(ev.Row)
				if err != nil {
					return err
				}
				row[i] = v
			}
			ev.Row = row
		}
		p.pend = append(p.pend, ev)
	}
	return flush(p.out, &p.pend)
}

func (p *projectOp) Finish() error { return p.out.Finish() }

// windowOp implements the Tumble/Hop/Session table-valued functions as
// incremental operators: each input insert/delete becomes inserts/deletes of
// the window-augmented rows. Tumble and Hop are stateless; Session maintains
// the multiset of seen timestamps so merges retract and re-emit affected
// rows.
type windowOp struct {
	out     sink
	fn      plan.WindowFn
	timeIdx int
	dur     types.Duration
	slide   types.Duration
	gap     types.Duration
	offset  types.Duration

	// Session state: every timestamp seen, with its multiplicity and rows,
	// in first-seen order. A timestamp whose multiplicity returns to 0 keeps
	// its entry, because its place in that order is the order retract and
	// re-emit cascades follow: the store never removes one.
	times  tvr.Store[sessionTime]
	keyBuf []byte // reusable timestamp-key encoding buffer

	pend      []tvr.Event // output scratch, reused across batches
	block     types.Row   // unused rest of the block output rows are carved from
	blockRows int         // rows per block: the batch's data event count
}

// sessionTime is one timestamp a session window has seen: its
// multiplicity and the distinct rows carrying it.
type sessionTime struct {
	ts    types.Time
	count int
	rows  []rowRef
}

type rowRef struct {
	row   types.Row
	count int
}

func newWindowOp(x *plan.WindowTVF, out sink) *windowOp {
	return &windowOp{
		out: out, fn: x.Fn, timeIdx: x.TimeIdx,
		dur: x.Dur, slide: x.Slide, gap: x.Gap, offset: x.Offset,
	}
}

// timeKey encodes t's key in the session store.
func (w *windowOp) timeKey(t types.Time) []byte {
	w.keyBuf = binary.BigEndian.AppendUint64(w.keyBuf[:0], uint64(t))
	return w.keyBuf
}

// emit appends ev's row, widened with the window bounds, to the output. Rows
// are carved from a block of one row per data event of the batch, so a
// Tumble batch allocates its rows once, as projectOp's do; Hop and Session,
// which may emit several rows per event, take a fresh block when one runs
// out.
func (w *windowOp) emit(ev tvr.Event, iv window.Interval) {
	width := len(ev.Row) + 2
	if len(w.block) < width {
		w.block = make(types.Row, w.blockRows*width)
	}
	row := w.block[:width:width]
	w.block = w.block[width:]
	copy(row, ev.Row)
	row[width-2] = types.NewTimestamp(iv.Start)
	row[width-1] = types.NewTimestamp(iv.End)
	w.pend = append(w.pend, tvr.Event{Ptime: ev.Ptime, Kind: ev.Kind, Row: row})
}

// PushBatch implements sink: the widened rows for the whole batch, session
// retractions and re-emissions included, are gathered and handed down in one
// dispatch.
func (w *windowOp) PushBatch(evs []tvr.Event) error {
	w.block, w.blockRows = nil, 0
	for i := range evs {
		if evs[i].IsData() {
			w.blockRows++
		}
	}
	for _, ev := range evs {
		if !ev.IsData() {
			w.pend = append(w.pend, ev)
			continue
		}
		tv := ev.Row[w.timeIdx]
		if tv.IsNull() {
			// Rows without an event timestamp belong to no window.
			continue
		}
		t := tv.Timestamp()
		switch w.fn {
		case plan.TumbleFn:
			w.emit(ev, window.Tumble(t, w.dur, w.offset))
		case plan.HopFn:
			for _, iv := range window.Hop(t, w.dur, w.slide, w.offset) {
				w.emit(ev, iv)
			}
		default:
			if err := w.pushSession(ev, t); err != nil {
				return err
			}
		}
	}
	return flush(w.out, &w.pend)
}

// pushSession handles the stateful session TVF. The strategy: determine the
// sessions affected by the change (those overlapping the changed timestamp's
// neighbourhood), retract their rows under the old assignment, apply the
// change, and re-emit rows under the new assignment.
func (w *windowOp) pushSession(ev tvr.Event, t types.Time) error {
	// affected is the slots of the live timestamps in sessions that may
	// change: those overlapping [t-gap, t+gap].
	affected := func(sessions []window.Interval) map[int32]bool {
		out := make(map[int32]bool)
		for _, s := range sessions {
			if s.End < t-types.Time(w.gap) || s.Start > t+types.Time(w.gap) {
				continue
			}
			for sl := w.times.First(); sl >= 0; sl = w.times.Next(sl) {
				if st := w.times.At(sl); st.count > 0 && s.Contains(st.ts) {
					out[sl] = true
				}
			}
		}
		return out
	}
	// emitAll emits a kind event for every row of the marked timestamps, in
	// the session the live timestamps assign it.
	emitAll := func(marked map[int32]bool, live []types.Time, kind tvr.EventKind) error {
		for sl := w.times.First(); sl >= 0; sl = w.times.Next(sl) {
			if !marked[sl] {
				continue
			}
			st := w.times.At(sl)
			iv, ok := window.AssignSession(st.ts, live, w.gap)
			if !ok {
				return fmt.Errorf("exec: session assignment missing for %s", st.ts)
			}
			for _, rr := range st.rows {
				for i := 0; i < rr.count; i++ {
					w.emit(tvr.Event{Ptime: ev.Ptime, Kind: kind, Row: rr.row}, iv)
				}
			}
		}
		return nil
	}
	// Retract affected rows under the old assignment.
	live := w.liveTimes()
	if err := emitAll(affected(window.MergeSessions(live, w.gap)), live, tvr.Delete); err != nil {
		return err
	}
	// Apply the change to state.
	sl := w.times.Find(w.timeKey(t))
	switch ev.Kind {
	case tvr.Insert:
		if sl < 0 {
			sl = w.times.Insert(w.keyBuf)
			w.times.At(sl).ts = t
		}
		st := w.times.At(sl)
		st.count++
		st.addRow(ev.Row)
	case tvr.Delete:
		if sl < 0 || w.times.At(sl).count == 0 {
			return fmt.Errorf("exec: session retraction of absent timestamp %s", t)
		}
		st := w.times.At(sl)
		st.count--
		if err := st.removeRow(ev.Row); err != nil {
			return err
		}
	}
	// Re-emit everything affected under the new assignment.
	live = w.liveTimes()
	return emitAll(affected(window.MergeSessions(live, w.gap)), live, tvr.Insert)
}

// liveTimes is the timestamps of multiplicity above 0, in first-seen order.
func (w *windowOp) liveTimes() []types.Time {
	out := make([]types.Time, 0, w.times.Len())
	for sl := w.times.First(); sl >= 0; sl = w.times.Next(sl) {
		if st := w.times.At(sl); st.count > 0 {
			out = append(out, st.ts)
		}
	}
	return out
}

func (st *sessionTime) addRow(row types.Row) {
	for i := range st.rows {
		if st.rows[i].row.Equal(row) {
			st.rows[i].count++
			return
		}
	}
	st.rows = append(st.rows, rowRef{row: row.Clone(), count: 1})
}

func (st *sessionTime) removeRow(row types.Row) error {
	for i, rr := range st.rows {
		if rr.row.Equal(row) && rr.count > 0 {
			st.rows[i].count--
			if st.rows[i].count == 0 {
				st.rows = append(st.rows[:i], st.rows[i+1:]...)
			}
			return nil
		}
	}
	return fmt.Errorf("exec: session retraction of absent row %s", row)
}

func (w *windowOp) Finish() error { return w.out.Finish() }

func (w *windowOp) stats(s *Stats) {
	for sl := w.times.First(); sl >= 0; sl = w.times.Next(sl) {
		for _, rr := range w.times.At(sl).rows {
			s.StateRows += rr.count
		}
	}
}

// rowCount is one distinct row of distinctOp with its input multiplicity.
type rowCount struct {
	row   types.Row
	count int
}

// distinctOp converts bag to set semantics incrementally: a row appears in
// the output while its input multiplicity is positive. A row whose
// multiplicity returns to 0 is forgotten, so state tracks the live rows.
type distinctOp struct {
	out    sink
	counts tvr.Store[rowCount] // keyed by the row's key
	keyBuf []byte
	pend   []tvr.Event
}

func (d *distinctOp) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if !ev.IsData() {
			d.pend = append(d.pend, ev)
			continue
		}
		d.keyBuf = ev.Row.AppendKey(d.keyBuf[:0])
		sl := d.counts.Find(d.keyBuf)
		if ev.Kind == tvr.Insert {
			if sl < 0 {
				sl = d.counts.Insert(d.keyBuf)
				rc := d.counts.At(sl)
				rc.row = ev.Row.Clone()
				d.pend = append(d.pend, tvr.InsertEvent(ev.Ptime, rc.row))
			}
			d.counts.At(sl).count++
			continue
		}
		if sl < 0 {
			return fmt.Errorf("exec: DISTINCT retraction of absent row %s", ev.Row)
		}
		rc := d.counts.At(sl)
		if rc.count--; rc.count == 0 {
			d.pend = append(d.pend, tvr.DeleteEvent(ev.Ptime, rc.row))
			d.counts.Remove(sl)
		}
	}
	return flush(d.out, &d.pend)
}

func (d *distinctOp) Finish() error { return d.out.Finish() }

func (d *distinctOp) stats(s *Stats) { s.StateRows += d.counts.Len() }

// mergingSink is shared machinery for operators with several input ports:
// watermarks min-merge, heartbeats deduplicate, and Finish propagates only
// after every port finished. Data events go to apply; every port appends its
// outputs to the one pend buffer and flushes it once per batch.
type mergingSink struct {
	out         sink
	inputs      int
	finished    int
	wms         []types.Time
	mergedWM    types.Time
	lastHB      types.Time
	hasHB       bool
	apply       func(port int, ev tvr.Event) error
	onWatermark func(wm types.Time)
	pend        []tvr.Event
}

func newMergingSink(inputs int, out sink) *mergingSink {
	wms := make([]types.Time, inputs)
	for i := range wms {
		wms[i] = types.MinTime
	}
	m := &mergingSink{out: out, inputs: inputs, wms: wms, mergedWM: types.MinTime}
	m.apply = func(_ int, ev tvr.Event) error {
		m.pend = append(m.pend, ev)
		return nil
	}
	return m
}

// inPort is input port i of a multi-input operator.
type inPort struct {
	m *mergingSink
	i int
}

func (m *mergingSink) port(i int) sink { return &inPort{m: m, i: i} }

func (p *inPort) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if ev.IsData() {
			if err := p.m.apply(p.i, ev); err != nil {
				return err
			}
		} else {
			p.m.control(p.i, ev)
		}
	}
	return flush(p.m.out, &p.m.pend)
}

func (p *inPort) Finish() error { return p.m.finishPort() }

// control handles a Watermark or Heartbeat event arriving on input port i.
func (m *mergingSink) control(i int, ev tvr.Event) {
	switch ev.Kind {
	case tvr.Watermark:
		m.wms[i] = max(m.wms[i], ev.Wm)
		min := m.wms[0]
		for _, w := range m.wms[1:] {
			if w < min {
				min = w
			}
		}
		if min > m.mergedWM {
			m.mergedWM = min
			if m.onWatermark != nil {
				m.onWatermark(min)
			}
			m.pend = append(m.pend, tvr.WatermarkEvent(ev.Ptime, min))
		}
	case tvr.Heartbeat:
		if !m.hasHB || ev.Ptime > m.lastHB {
			m.hasHB = true
			m.lastHB = ev.Ptime
			m.pend = append(m.pend, ev)
		}
	}
}

// finishPort records one port finishing; downstream finishes when all have.
func (m *mergingSink) finishPort() error {
	m.finished++
	if m.finished == m.inputs {
		return m.out.Finish()
	}
	return nil
}

// unionOp concatenates its inputs (UNION ALL).
type unionOp struct {
	*mergingSink
}

func newUnionOp(inputs int, out sink) *unionOp {
	return &unionOp{mergingSink: newMergingSink(inputs, out)}
}

// setOp implements INTERSECT [ALL] and EXCEPT [ALL] incrementally by
// tracking per-row multiplicities on both sides and emitting the delta of
// the output multiplicity function on every change. A row is forgotten once
// both sides' multiplicities and its output multiplicity are 0.
type setOp struct {
	*mergingSink
	op     func(l, r int) int
	rows   tvr.Store[setRow] // keyed by the row's key
	keyBuf []byte
}

// setRow is one row of a set operation with its left, right and output
// multiplicities.
type setRow struct {
	row       types.Row
	l, r, out int
}

func newSetOp(x *plan.SetOp, out sink) *setOp {
	s := &setOp{mergingSink: newMergingSink(2, out)}
	s.apply = s.applySide
	intersect := x.Op.String() == "INTERSECT"
	all := x.All
	s.op = func(l, r int) int {
		switch {
		case intersect && all:
			if l < r {
				return l
			}
			return r
		case intersect:
			if l > 0 && r > 0 {
				return 1
			}
			return 0
		case all: // EXCEPT ALL
			if d := l - r; d > 0 {
				return d
			}
			return 0
		default: // EXCEPT
			if l > 0 && r == 0 {
				return 1
			}
			return 0
		}
	}
	return s
}

func (s *setOp) applySide(side int, ev tvr.Event) error {
	s.keyBuf = ev.Row.AppendKey(s.keyBuf[:0])
	sl := s.rows.Find(s.keyBuf)
	if sl < 0 {
		if ev.Kind == tvr.Delete {
			return fmt.Errorf("exec: set operation retraction of absent row %s", ev.Row)
		}
		sl = s.rows.Insert(s.keyBuf)
		s.rows.At(sl).row = ev.Row.Clone()
	}
	sr := s.rows.At(sl)
	n := &sr.l
	if side == 1 {
		n = &sr.r
	}
	if ev.Kind == tvr.Delete {
		if *n == 0 {
			return fmt.Errorf("exec: set operation retraction of absent row %s", ev.Row)
		}
		*n--
	} else {
		*n++
	}
	newOut := s.op(sr.l, sr.r)
	for i := sr.out; i < newOut; i++ {
		s.pend = append(s.pend, tvr.InsertEvent(ev.Ptime, sr.row))
	}
	for i := newOut; i < sr.out; i++ {
		s.pend = append(s.pend, tvr.DeleteEvent(ev.Ptime, sr.row))
	}
	sr.out = newOut
	if sr.l == 0 && sr.r == 0 && sr.out == 0 {
		s.rows.Remove(sl)
	}
	return nil
}

func (s *setOp) stats(st *Stats) { st.StateRows += s.rows.Len() }
