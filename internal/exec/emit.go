package exec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/tvr"
	"repro/internal/types"
)

// emitGroupKeys identifies the event-time grouping of an output schema: the
// paper's EMIT extensions delay/coalesce materialization per event-time
// grouping (e.g. per window).
type emitGroupKeys struct {
	idxs []int      // the group's store key is the row's values at these columns
	keys []eventKey // the same columns with their completion offsets
}

func groupKeysOf(sch *types.Schema) emitGroupKeys {
	var g emitGroupKeys
	for _, i := range sch.EmitKeyCols() {
		g.idxs = append(g.idxs, i)
		g.keys = append(g.keys, eventKey{pos: i, offset: sch.Cols[i].WmOffset})
	}
	return g
}

// emitAfterWatermarkOp implements Extension 5 (EMIT AFTER WATERMARK): it
// buffers the evolving result per event-time group and materializes each
// group exactly once — its final contents — when the watermark declares the
// group complete. Changes to already-complete groups are dropped as late.
// Emitted rows are immutable, so a group keeps the rows it receives (its
// sample and its bag's rows) without copying them.
//
// A group's contents are a bag with tvr.Relation's semantics: distinct rows
// in the order they (re)entered, each with its multiplicity. One store holds
// every open group's rows, keyed by the group's slot and the row's key, and
// each row entry is linked into its group's (re)entry order.
type emitAfterWatermarkOp struct {
	out    sink
	keys   emitGroupKeys
	groups tvr.Store[wmGroup] // open groups only
	rows   tvr.Store[wmRow]   // the rows of every open group
	idx    completionIndex    // which groups a watermark completes
	wm     types.Time
	late   int
	keyBuf []byte      // reusable group- and row-key encoding buffer
	pend   []tvr.Event // per-dispatch output buffer, flushed once
}

type wmGroup struct {
	sample     types.Row // an input row, kept as is: carries the event-time key values
	head, tail int32     // the group's first and last row entry, -1 when it has none
	entries    int       // distinct rows
	size       int       // rows counting multiplicity
}

// wmRow is one distinct row of a group's bag.
type wmRow struct {
	row        types.Row
	count      int
	prev, next int32 // neighbours in the group's (re)entry order, -1 at the ends
}

func newEmitAfterWatermark(sch *types.Schema, out sink) *emitAfterWatermarkOp {
	keys := groupKeysOf(sch)
	return &emitAfterWatermarkOp{
		out:  out,
		keys: keys,
		idx:  completionIndex{keys: keys.keys},
		wm:   types.MinTime,
	}
}

func (e *emitAfterWatermarkOp) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if err := e.pushEvent(ev); err != nil {
			return err
		}
	}
	return flush(e.out, &e.pend)
}

func (e *emitAfterWatermarkOp) pushEvent(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		e.onWatermark(ev)
		return nil
	case tvr.Heartbeat:
		e.pend = append(e.pend, ev)
		return nil
	}
	e.keyBuf = ev.Row.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
	gs := e.groups.Find(e.keyBuf)
	if gs < 0 {
		if e.idx.complete(ev.Row, e.wm) {
			// The group was materialized and evicted before this row
			// arrived, or the row arrives late from the start.
			e.late++
			return nil
		}
		gs = e.groups.Insert(e.keyBuf)
		e.openGroup(gs, ev.Row)
	}
	if ev.Kind == tvr.Insert {
		e.insertRow(gs, ev.Row)
		return nil
	}
	return e.deleteRow(gs, ev.Row)
}

// openGroup empties the group just inserted in slot gs and registers it
// with the completion index.
func (e *emitAfterWatermarkOp) openGroup(gs int32, sample types.Row) {
	*e.groups.At(gs) = wmGroup{sample: sample, head: -1, tail: -1}
	e.idx.add(gs, sample)
}

// rowKey encodes the rows-store key of row in the group in slot gs.
func (e *emitAfterWatermarkOp) rowKey(gs int32, row types.Row) []byte {
	e.keyBuf = binary.LittleEndian.AppendUint32(e.keyBuf[:0], uint32(gs))
	e.keyBuf = row.AppendKey(e.keyBuf)
	return e.keyBuf
}

// insertRow adds one copy of row to the group in slot gs; a row that enters
// the bag goes at the back of its order (appendRow).
func (e *emitAfterWatermarkOp) insertRow(gs int32, row types.Row) {
	key := e.rowKey(gs, row)
	if rs := e.rows.Find(key); rs >= 0 {
		e.groups.At(gs).size++
		e.rows.At(rs).count++
		return
	}
	e.appendRow(gs, e.rows.Insert(key), row, 1)
}

// appendRow puts count copies of row, which enters the bag of the group in
// slot gs, in the rows slot rs just inserted, at the back of the bag's
// order.
func (e *emitAfterWatermarkOp) appendRow(gs, rs int32, row types.Row, count int) {
	g := e.groups.At(gs)
	g.size += count
	*e.rows.At(rs) = wmRow{row: row, count: count, prev: g.tail, next: -1}
	if g.tail >= 0 {
		e.rows.At(g.tail).next = rs
	} else {
		g.head = rs
	}
	g.tail = rs
	g.entries++
}

// deleteRow removes one copy of row from the group in slot gs; a row whose
// multiplicity reaches zero leaves the bag.
func (e *emitAfterWatermarkOp) deleteRow(gs int32, row types.Row) error {
	rs := e.rows.Find(e.rowKey(gs, row))
	if rs < 0 {
		return fmt.Errorf("exec: EMIT AFTER WATERMARK retraction of absent row %s", row)
	}
	g, r := e.groups.At(gs), e.rows.At(rs)
	g.size--
	if r.count--; r.count > 0 {
		return nil
	}
	if r.prev >= 0 {
		e.rows.At(r.prev).next = r.next
	} else {
		g.head = r.next
	}
	if r.next >= 0 {
		e.rows.At(r.next).prev = r.prev
	} else {
		g.tail = r.prev
	}
	g.entries--
	e.rows.Remove(rs)
	return nil
}

func (e *emitAfterWatermarkOp) onWatermark(ev tvr.Event) {
	if ev.Wm <= e.wm {
		return
	}
	e.wm = ev.Wm
	for _, c := range e.idx.advance(e.wm) {
		// Materialize the final contents of the group, once.
		for rs := e.groups.At(c.slot).head; rs >= 0; {
			r := e.rows.At(rs)
			for i := 0; i < r.count; i++ {
				e.pend = append(e.pend, tvr.InsertEvent(ev.Ptime, r.row))
			}
			next := r.next
			e.rows.Remove(rs)
			rs = next
		}
		e.groups.Remove(c.slot)
	}
	e.pend = append(e.pend, ev)
}

func (e *emitAfterWatermarkOp) Finish() error { return e.out.Finish() }

func (e *emitAfterWatermarkOp) stats(s *Stats) {
	for gs := e.groups.First(); gs >= 0; gs = e.groups.Next(gs) {
		s.StateRows += e.groups.At(gs).size
	}
	s.StateGroups += e.groups.Len()
	s.LateDropped += e.late
	s.FreedGroups += e.idx.freed
}

// emitAfterDelayOp implements Extension 6 (EMIT AFTER DELAY) and Extension 7
// (combined with AFTER WATERMARK): per event-time group, the first change
// after a materialization arms a processing-time timer; when it fires the
// group's current contents are materialized as a diff against the last
// materialized contents, coalescing the intervening "torrent of updates"
// into one revision. With alsoWatermark set, watermark completion forces a
// final materialization and closes the group (the early/on-time pattern).
type emitAfterDelayOp struct {
	out           sink
	keys          emitGroupKeys
	delay         types.Duration
	alsoWatermark bool

	groups tvr.Store[delayGroup] // open groups only
	idx    completionIndex       // which groups a watermark completes
	timers dueHeap               // the armed timers, at their deadlines
	seq    int
	wm     types.Time
	late   int
	keyBuf []byte      // reusable group-key encoding buffer
	pend   []tvr.Event // per-dispatch output buffer, flushed once
}

// delayGroup is one event-time group's buffered contents. A group closed by
// the watermark leaves the store and the index but may still be named by a
// pending timer, and its slot may hold a newer group by the time the timer
// pops: a timer fires only while it is its slot's group's armed timer, so
// the stale one is a no-op.
type delayGroup struct {
	sample  types.Row     // a copy of an input row: carries the event-time key values
	lastMat *tvr.Relation // contents at last materialization
	cur     *tvr.Relation // live contents
	armed   bool
	timer   int // the seq of the group's pending timer, while armed
}

func newEmitAfterDelay(sch *types.Schema, delay types.Duration, alsoWatermark bool, out sink) *emitAfterDelayOp {
	e := &emitAfterDelayOp{
		out:           out,
		keys:          groupKeysOf(sch),
		delay:         delay,
		alsoWatermark: alsoWatermark,
		wm:            types.MinTime,
	}
	if alsoWatermark {
		// Without AFTER WATERMARK the index has no event keys: groups never
		// complete and it only numbers them.
		e.idx.keys = e.keys.keys
	}
	return e
}

func (e *emitAfterDelayOp) PushBatch(evs []tvr.Event) error {
	for _, ev := range evs {
		if err := e.pushEvent(ev); err != nil {
			return err
		}
	}
	return flush(e.out, &e.pend)
}

func (e *emitAfterDelayOp) pushEvent(ev tvr.Event) error {
	// Timers strictly earlier than the new processing time fire first, so
	// emissions remain ptime-ordered. A timer whose deadline equals the
	// event's ptime fires after the event is applied (the paper's Listing
	// 14 shows the 8:18 input included in the 8:18 materialization).
	e.fireDue(ev.Ptime, false)
	switch ev.Kind {
	case tvr.Watermark:
		e.onWatermark(ev)
		return nil
	case tvr.Heartbeat:
		e.fireDue(ev.Ptime, true)
		e.pend = append(e.pend, ev)
		return nil
	}
	e.keyBuf = ev.Row.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
	gs := e.groups.Find(e.keyBuf)
	if gs < 0 {
		if e.idx.complete(ev.Row, e.wm) {
			e.late++
			return nil
		}
		// A group may never close (AFTER DELAY alone), so it copies its
		// sample rather than keep the input's row block alive (see "Rows"
		// in doc.go).
		gs = e.groups.Insert(e.keyBuf)
		e.openGroup(gs, ev.Row.Clone())
	}
	g := e.groups.At(gs)
	if err := g.cur.Apply(ev); err != nil {
		return err
	}
	if !g.armed {
		g.armed = true
		e.seq++
		g.timer = e.seq
		e.timers.push(dueGroup{slot: gs, seq: e.seq, at: ev.Ptime.Add(e.delay)})
	}
	return nil
}

// openGroup gives the group just inserted in slot gs empty contents and
// registers it with the completion index.
func (e *emitAfterDelayOp) openGroup(gs int32, sample types.Row) {
	*e.groups.At(gs) = delayGroup{sample: sample, lastMat: tvr.NewRelation(), cur: tvr.NewRelation()}
	e.idx.add(gs, sample)
}

// pending reports whether t is the armed timer of its slot's group.
func (e *emitAfterDelayOp) pending(t dueGroup) bool {
	g := e.groups.At(t.slot)
	return g.armed && g.timer == t.seq
}

// fireDue fires timers with deadline strictly before p, or at or before p
// when inclusive (heartbeats, which mark "processing time has reached p").
func (e *emitAfterDelayOp) fireDue(p types.Time, inclusive bool) {
	for len(e.timers) > 0 && (e.timers[0].at < p || inclusive && e.timers[0].at == p) {
		if t := e.timers.pop(); e.pending(t) {
			e.fire(e.groups.At(t.slot), t.at)
		}
	}
}

// fire materializes the armed group's pending changes as a diff at ptime p.
func (e *emitAfterDelayOp) fire(g *delayGroup, p types.Time) {
	g.armed = false
	e.pend = append(e.pend, g.lastMat.Diff(g.cur, p)...)
	g.lastMat = g.cur.Clone()
}

func (e *emitAfterDelayOp) onWatermark(ev tvr.Event) {
	if ev.Wm <= e.wm {
		e.pend = append(e.pend, tvr.WatermarkEvent(ev.Ptime, e.wm))
		return
	}
	e.wm = ev.Wm
	for _, c := range e.idx.advance(e.wm) {
		// Final on-time materialization closes the group, whether or not
		// a timer is pending.
		g := e.groups.At(c.slot)
		e.pend = append(e.pend, g.lastMat.Diff(g.cur, ev.Ptime)...)
		e.groups.Remove(c.slot)
	}
	e.pend = append(e.pend, ev)
}

// Finish flushes all pending timers at their deadlines: the end of the
// recorded input means processing time runs to infinity.
func (e *emitAfterDelayOp) Finish() error {
	e.fireDue(types.MaxTime, true)
	if err := flush(e.out, &e.pend); err != nil {
		return err
	}
	return e.out.Finish()
}

func (e *emitAfterDelayOp) stats(s *Stats) {
	for gs := e.groups.First(); gs >= 0; gs = e.groups.Next(gs) {
		s.StateRows += e.groups.At(gs).cur.Len()
	}
	s.StateGroups += e.groups.Len()
	s.LateDropped += e.late
	s.FreedGroups += e.idx.freed
}
