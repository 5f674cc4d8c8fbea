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
	batch     []tvr.Event // asOf filtering scratch, reused across batches
}

func (s *scanOp) Push(ev tvr.Event) error {
	if ev.Ptime > s.lastPtime {
		s.lastPtime = ev.Ptime
	}
	if s.asOf != nil && ev.Ptime > *s.asOf {
		// Beyond the snapshot horizon: the relation is frozen, but the
		// processing-time clock still advances for downstream timers.
		if ev.Kind == tvr.Heartbeat {
			return s.out.Push(ev)
		}
		return nil
	}
	return s.out.Push(ev)
}

// PushBatch implements batchSink. Without a snapshot bound the batch passes
// through untouched (zero copy); with one, surviving events are gathered into
// a reused scratch slice.
func (s *scanOp) PushBatch(evs []tvr.Event) error {
	if last := evs[len(evs)-1].Ptime; last > s.lastPtime {
		s.lastPtime = last
	}
	if s.asOf == nil {
		return pushBatch(s.out, evs)
	}
	s.batch = s.batch[:0]
	for _, ev := range evs {
		if ev.Ptime > *s.asOf && ev.Kind != tvr.Heartbeat {
			continue
		}
		s.batch = append(s.batch, ev)
	}
	return pushBatch(s.out, s.batch)
}

func (s *scanOp) Finish() error {
	if s.finished {
		return nil
	}
	s.finished = true
	if s.bounded || s.asOf != nil {
		// A bounded relation (table or snapshot) is complete: assert it.
		if err := s.out.Push(tvr.WatermarkEvent(s.lastPtime, types.MaxTime)); err != nil {
			return err
		}
	}
	return s.out.Finish()
}

// valuesOp emits a constant relation at open time.
type valuesOp struct {
	out  sink
	rows []types.Row
}

func (v *valuesOp) Open() error {
	for _, r := range v.rows {
		if err := v.out.Push(tvr.InsertEvent(types.MinTime, r)); err != nil {
			return err
		}
	}
	return nil
}

func (v *valuesOp) Push(ev tvr.Event) error { return v.out.Push(ev) }

func (v *valuesOp) Finish() error {
	return v.out.Finish()
}

// filterOp keeps rows whose condition evaluates to TRUE. Because the
// predicate is deterministic, inserts and deletes filter identically and
// retraction consistency is preserved.
type filterOp struct {
	out   sink
	cond  plan.Scalar
	batch []tvr.Event // surviving-event scratch, reused across batches
}

func (f *filterOp) Push(ev tvr.Event) error {
	if ev.IsData() {
		ok, err := plan.EvalBool(f.cond, ev.Row)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	return f.out.Push(ev)
}

// PushBatch implements batchSink: evaluate the predicate across the batch,
// then hand the survivors (data that passed plus all control events, in
// order) downstream in one dispatch.
func (f *filterOp) PushBatch(evs []tvr.Event) error {
	f.batch = f.batch[:0]
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
		f.batch = append(f.batch, ev)
	}
	return pushBatch(f.out, f.batch)
}

func (f *filterOp) Finish() error { return f.out.Finish() }

// projectOp maps each row through the projection expressions.
type projectOp struct {
	out   sink
	exprs []plan.Scalar
	batch []tvr.Event // output-event scratch, reused across batches
}

func (p *projectOp) Push(ev tvr.Event) error {
	if !ev.IsData() {
		return p.out.Push(ev)
	}
	row := make(types.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := e.Eval(ev.Row)
		if err != nil {
			return err
		}
		row[i] = v
	}
	ev.Row = row
	return p.out.Push(ev)
}

// PushBatch implements batchSink. Output rows for the whole batch are carved
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
	p.batch = p.batch[:0]
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
		p.batch = append(p.batch, ev)
	}
	return pushBatch(p.out, p.batch)
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

	batch []tvr.Event // tumble/hop output scratch, reused across batches
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

func (w *windowOp) Push(ev tvr.Event) error {
	if !ev.IsData() {
		return w.out.Push(ev)
	}
	tv := ev.Row[w.timeIdx]
	if tv.IsNull() {
		// Rows without an event timestamp belong to no window.
		return nil
	}
	t := tv.Timestamp()
	switch w.fn {
	case plan.TumbleFn:
		iv := window.Tumble(t, w.dur, w.offset)
		return w.emit(ev, iv)
	case plan.HopFn:
		for _, iv := range window.Hop(t, w.dur, w.slide, w.offset) {
			if err := w.emit(ev, iv); err != nil {
				return err
			}
		}
		return nil
	default:
		return w.pushSession(ev, t)
	}
}

func (w *windowOp) emit(ev tvr.Event, iv window.Interval) error {
	return w.out.Push(w.widen(ev, iv))
}

// widen appends the window bounds to the event's row.
func (w *windowOp) widen(ev tvr.Event, iv window.Interval) tvr.Event {
	row := make(types.Row, 0, len(ev.Row)+2)
	row = append(row, ev.Row...)
	row = append(row, types.NewTimestamp(iv.Start), types.NewTimestamp(iv.End))
	return tvr.Event{Ptime: ev.Ptime, Kind: ev.Kind, Row: row}
}

// PushBatch implements batchSink for the stateless window functions: the
// widened rows for the whole batch are gathered and handed down in one
// dispatch. The stateful session TVF keeps the per-event path.
func (w *windowOp) PushBatch(evs []tvr.Event) error {
	if w.fn == plan.SessionFn {
		for i := range evs {
			if err := w.Push(evs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	w.batch = w.batch[:0]
	for _, ev := range evs {
		if !ev.IsData() {
			w.batch = append(w.batch, ev)
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
			w.batch = append(w.batch, w.widen(ev, window.Tumble(t, w.dur, w.offset)))
		case plan.HopFn:
			for _, iv := range window.Hop(t, w.dur, w.slide, w.offset) {
				w.batch = append(w.batch, w.widen(ev, iv))
			}
		}
	}
	return pushBatch(w.out, w.batch)
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
				if err := w.emit(tvr.Event{Ptime: ev.Ptime, Kind: tvr.Delete, Row: rr.row}, iv); err != nil {
					return err
				}
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
				if err := w.emit(tvr.Event{Ptime: ev.Ptime, Kind: tvr.Insert, Row: rr.row}, iv); err != nil {
					return err
				}
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
// the output while its input multiplicity is positive.
type distinctOp struct {
	out    sink
	counts map[string]*rowCount
}

func (d *distinctOp) Push(ev tvr.Event) error {
	if !ev.IsData() {
		return d.out.Push(ev)
	}
	k := ev.Row.Key()
	rc, ok := d.counts[k]
	if !ok {
		rc = &rowCount{row: ev.Row.Clone()}
		d.counts[k] = rc
	}
	switch ev.Kind {
	case tvr.Insert:
		rc.count++
		if rc.count == 1 {
			return d.out.Push(tvr.InsertEvent(ev.Ptime, rc.row))
		}
	case tvr.Delete:
		if rc.count <= 0 {
			return fmt.Errorf("exec: DISTINCT retraction of absent row %s", ev.Row)
		}
		rc.count--
		if rc.count == 0 {
			return d.out.Push(tvr.DeleteEvent(ev.Ptime, rc.row))
		}
	}
	return nil
}

func (d *distinctOp) Finish() error { return d.out.Finish() }

func (d *distinctOp) stats(s *Stats) { s.StateRows += len(d.counts) }

// mergingSink is shared machinery for operators with several input ports:
// watermarks min-merge, heartbeats deduplicate, and Finish propagates only
// after every port finished.
type mergingSink struct {
	out         sink
	inputs      int
	finished    int
	wms         []types.Time
	mergedWM    types.Time
	lastHB      types.Time
	hasHB       bool
	onWatermark func(wm types.Time, ptime types.Time) error
}

func newMergingSink(inputs int, out sink) *mergingSink {
	wms := make([]types.Time, inputs)
	for i := range wms {
		wms[i] = types.MinTime
	}
	return &mergingSink{out: out, inputs: inputs, wms: wms, mergedWM: types.MinTime}
}

// pushControl handles Watermark/Heartbeat events for input port i, returning
// true if the event was consumed as a control event.
func (m *mergingSink) pushControl(i int, ev tvr.Event) (bool, error) {
	switch ev.Kind {
	case tvr.Watermark:
		if ev.Wm > m.wms[i] {
			m.wms[i] = ev.Wm
		}
		min := m.wms[0]
		for _, w := range m.wms[1:] {
			if w < min {
				min = w
			}
		}
		if min > m.mergedWM {
			m.mergedWM = min
			if m.onWatermark != nil {
				if err := m.onWatermark(min, ev.Ptime); err != nil {
					return true, err
				}
			}
			return true, m.out.Push(tvr.WatermarkEvent(ev.Ptime, min))
		}
		return true, nil
	case tvr.Heartbeat:
		if !m.hasHB || ev.Ptime > m.lastHB {
			m.hasHB = true
			m.lastHB = ev.Ptime
			return true, m.out.Push(ev)
		}
		return true, nil
	}
	return false, nil
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

type unionPort struct {
	u *unionOp
	i int
}

func (u *unionOp) port(i int) sink { return &unionPort{u: u, i: i} }

func (p *unionPort) Push(ev tvr.Event) error {
	if done, err := p.u.pushControl(p.i, ev); done || err != nil {
		return err
	}
	return p.u.out.Push(ev)
}

func (p *unionPort) Finish() error { return p.u.finishPort() }

// Push implements sink for the operator itself (unused; ports are the
// entry points) — present so unionOp satisfies interfaces uniformly.
func (u *unionOp) Push(ev tvr.Event) error { return u.out.Push(ev) }

// Finish implements sink.
func (u *unionOp) Finish() error { return nil }

// setOp implements INTERSECT [ALL] and EXCEPT [ALL] incrementally by
// tracking per-row multiplicities on both sides and emitting the delta of
// the output multiplicity function on every change.
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

type setPort struct {
	s    *setOp
	side int // 0 = left, 1 = right
}

func (s *setOp) leftPort() sink  { return &setPort{s: s, side: 0} }
func (s *setOp) rightPort() sink { return &setPort{s: s, side: 1} }

func (p *setPort) Push(ev tvr.Event) error {
	if done, err := p.s.pushControl(p.side, ev); done || err != nil {
		return err
	}
	return p.s.apply(p.side, ev)
}

func (p *setPort) Finish() error { return p.s.finishPort() }

func (s *setOp) apply(side int, ev tvr.Event) error {
	k := ev.Row.Key()
	if _, ok := s.rowsByKey[k]; !ok {
		s.rowsByKey[k] = ev.Row.Clone()
	}
	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	if side == 0 {
		s.leftN[k] += delta
		if s.leftN[k] < 0 {
			return fmt.Errorf("exec: set operation retraction of absent row %s", ev.Row)
		}
	} else {
		s.rightN[k] += delta
		if s.rightN[k] < 0 {
			return fmt.Errorf("exec: set operation retraction of absent row %s", ev.Row)
		}
	}
	newOut := s.op(s.leftN[k], s.rightN[k])
	old := s.outN[k]
	s.outN[k] = newOut
	row := s.rowsByKey[k]
	for i := old; i < newOut; i++ {
		if err := s.out.Push(tvr.InsertEvent(ev.Ptime, row)); err != nil {
			return err
		}
	}
	for i := newOut; i < old; i++ {
		if err := s.out.Push(tvr.DeleteEvent(ev.Ptime, row)); err != nil {
			return err
		}
	}
	return nil
}

// Push and Finish satisfy sink on the operator itself.
func (s *setOp) Push(ev tvr.Event) error { return s.out.Push(ev) }

// Finish implements sink.
func (s *setOp) Finish() error { return nil }

func (s *setOp) stats(st *Stats) { st.StateRows += len(s.rowsByKey) }
