package exec

import (
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

	// Session state.
	times    map[types.Time]int      // timestamp -> multiplicity
	rowsAt   map[types.Time][]rowRef // rows carrying each timestamp
	timeList []types.Time            // insertion order of distinct timestamps

	pend      []tvr.Event // output scratch, reused across batches
	block     types.Row   // unused rest of the block output rows are carved from
	blockRows int         // rows per block: the batch's data event count
}

type rowRef struct {
	row   types.Row
	count int
}

func newWindowOp(x *plan.WindowTVF, out sink) *windowOp {
	w := &windowOp{
		out: out, fn: x.Fn, timeIdx: x.TimeIdx,
		dur: x.Dur, slide: x.Slide, gap: x.Gap, offset: x.Offset,
	}
	if x.Fn == plan.SessionFn {
		w.times = make(map[types.Time]int)
		w.rowsAt = make(map[types.Time][]rowRef)
	}
	return w
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
	oldSessions := w.mergedSessions()
	// Collect rows assigned to sessions that may change: those whose
	// session overlaps [t-gap, t+gap].
	affected := func(sessions []window.Interval) map[types.Time]bool {
		out := make(map[types.Time]bool)
		for _, s := range sessions {
			if s.End < t-types.Time(w.gap) || s.Start > t+types.Time(w.gap) {
				continue
			}
			for _, ts := range w.timeList {
				if w.times[ts] > 0 && s.Contains(ts) {
					out[ts] = true
				}
			}
		}
		return out
	}
	before := affected(oldSessions)
	// Retract affected rows under the old assignment.
	for _, ts := range w.timeList {
		if !before[ts] {
			continue
		}
		iv, ok := window.AssignSession(ts, w.liveTimes(), w.gap)
		if !ok {
			return fmt.Errorf("exec: session assignment missing for %s", ts)
		}
		for _, rr := range w.rowsAt[ts] {
			for i := 0; i < rr.count; i++ {
				w.emit(tvr.Event{Ptime: ev.Ptime, Kind: tvr.Delete, Row: rr.row}, iv)
			}
		}
	}
	// Apply the change to state.
	switch ev.Kind {
	case tvr.Insert:
		if w.times[t] == 0 {
			if _, seen := w.rowsAt[t]; !seen {
				w.timeList = append(w.timeList, t)
				w.rowsAt[t] = nil
			}
		}
		w.times[t]++
		w.addRow(t, ev.Row)
	case tvr.Delete:
		if w.times[t] == 0 {
			return fmt.Errorf("exec: session retraction of absent timestamp %s", t)
		}
		w.times[t]--
		if err := w.removeRow(t, ev.Row); err != nil {
			return err
		}
	}
	// Re-emit everything affected under the new assignment.
	newSessions := w.mergedSessions()
	after := affected(newSessions)
	for _, ts := range w.timeList {
		if !after[ts] || w.times[ts] == 0 {
			continue
		}
		iv, ok := window.AssignSession(ts, w.liveTimes(), w.gap)
		if !ok {
			return fmt.Errorf("exec: session assignment missing for %s", ts)
		}
		for _, rr := range w.rowsAt[ts] {
			for i := 0; i < rr.count; i++ {
				w.emit(tvr.Event{Ptime: ev.Ptime, Kind: tvr.Insert, Row: rr.row}, iv)
			}
		}
	}
	return nil
}

func (w *windowOp) mergedSessions() []window.Interval {
	return window.MergeSessions(w.liveTimes(), w.gap)
}

func (w *windowOp) liveTimes() []types.Time {
	out := make([]types.Time, 0, len(w.timeList))
	for _, ts := range w.timeList {
		if w.times[ts] > 0 {
			out = append(out, ts)
		}
	}
	return out
}

func (w *windowOp) addRow(t types.Time, row types.Row) {
	refs := w.rowsAt[t]
	for i := range refs {
		if refs[i].row.Equal(row) {
			refs[i].count++
			return
		}
	}
	w.rowsAt[t] = append(refs, rowRef{row: row.Clone(), count: 1})
}

func (w *windowOp) removeRow(t types.Time, row types.Row) error {
	refs := w.rowsAt[t]
	for i := range refs {
		if refs[i].row.Equal(row) && refs[i].count > 0 {
			refs[i].count--
			if refs[i].count == 0 {
				w.rowsAt[t] = append(refs[:i], refs[i+1:]...)
			}
			return nil
		}
	}
	return fmt.Errorf("exec: session retraction of absent row %s", row)
}

func (w *windowOp) Finish() error { return w.out.Finish() }

func (w *windowOp) stats(s *Stats) {
	for _, refs := range w.rowsAt {
		for _, rr := range refs {
			s.StateRows += rr.count
		}
	}
}

// rowCount supports distinctOp bookkeeping.
type rowCount struct {
	row   types.Row
	count int
}

// distinctOp converts bag to set semantics incrementally: a row appears in
// the output while its input multiplicity is positive. A row whose
// multiplicity returns to 0 is forgotten, so state tracks the live rows.
type distinctOp struct {
	out    sink
	counts map[string]*rowCount
	pend   []tvr.Event
}

func (d *distinctOp) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if !ev.IsData() {
			d.pend = append(d.pend, ev)
			continue
		}
		k := ev.Row.Key()
		rc := d.counts[k]
		if ev.Kind == tvr.Insert {
			if rc == nil {
				rc = &rowCount{row: ev.Row.Clone()}
				d.counts[k] = rc
				d.pend = append(d.pend, tvr.InsertEvent(ev.Ptime, rc.row))
			}
			rc.count++
			continue
		}
		if rc == nil {
			return fmt.Errorf("exec: DISTINCT retraction of absent row %s", ev.Row)
		}
		if rc.count--; rc.count == 0 {
			delete(d.counts, k)
			d.pend = append(d.pend, tvr.DeleteEvent(ev.Ptime, rc.row))
		}
	}
	return flush(d.out, &d.pend)
}

func (d *distinctOp) Finish() error { return d.out.Finish() }

func (d *distinctOp) stats(s *Stats) { s.StateRows += len(d.counts) }

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
	op        func(l, r int) int
	leftN     map[string]int
	rightN    map[string]int
	outN      map[string]int
	rowsByKey map[string]types.Row
}

func newSetOp(x *plan.SetOp, out sink) *setOp {
	s := &setOp{
		mergingSink: newMergingSink(2, out),
		leftN:       make(map[string]int),
		rightN:      make(map[string]int),
		outN:        make(map[string]int),
		rowsByKey:   make(map[string]types.Row),
	}
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
	k := ev.Row.Key()
	counts := s.leftN
	if side == 1 {
		counts = s.rightN
	}
	if ev.Kind == tvr.Delete {
		if counts[k] == 0 {
			return fmt.Errorf("exec: set operation retraction of absent row %s", ev.Row)
		}
		counts[k]--
	} else {
		if _, ok := s.rowsByKey[k]; !ok {
			s.rowsByKey[k] = ev.Row.Clone()
		}
		counts[k]++
	}
	l, r := s.leftN[k], s.rightN[k]
	newOut := s.op(l, r)
	old := s.outN[k]
	row := s.rowsByKey[k]
	for i := old; i < newOut; i++ {
		s.pend = append(s.pend, tvr.InsertEvent(ev.Ptime, row))
	}
	for i := newOut; i < old; i++ {
		s.pend = append(s.pend, tvr.DeleteEvent(ev.Ptime, row))
	}
	if l == 0 && r == 0 && newOut == 0 {
		s.forget(k)
		return nil
	}
	s.outN[k] = newOut
	return nil
}

// forget drops every trace of row key k.
func (s *setOp) forget(k string) {
	delete(s.leftN, k)
	delete(s.rightN, k)
	delete(s.outN, k)
	delete(s.rowsByKey, k)
}

func (s *setOp) stats(st *Stats) { st.StateRows += len(s.rowsByKey) }
