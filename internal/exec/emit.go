package exec

import (
	"container/heap"

	"repro/internal/tvr"
	"repro/internal/types"
)

// emitGroupKeys identifies the event-time grouping of an output schema: the
// paper's EMIT extensions delay/coalesce materialization per event-time
// grouping (e.g. per window).
type emitGroupKeys struct {
	idxs []int      // the group's map key is the row's values at these columns
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
type emitAfterWatermarkOp struct {
	out    sink
	keys   emitGroupKeys
	groups map[string]*wmGroup       // open groups only
	idx    completionIndex[*wmGroup] // which groups a watermark completes
	wm     types.Time
	late   int
	keyBuf []byte // reusable group-key encoding buffer
}

type wmGroup struct {
	sample types.Row // carries the event-time key values
	rel    *tvr.Relation
	seq    int // first-seen sequence (snapshot order)
}

func newEmitAfterWatermark(sch *types.Schema, out sink) *emitAfterWatermarkOp {
	keys := groupKeysOf(sch)
	return &emitAfterWatermarkOp{
		out:    out,
		keys:   keys,
		groups: make(map[string]*wmGroup),
		idx:    completionIndex[*wmGroup]{keys: keys.keys},
		wm:     types.MinTime,
	}
}

func (e *emitAfterWatermarkOp) Push(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		return e.onWatermark(ev)
	case tvr.Heartbeat:
		return e.out.Push(ev)
	}
	e.keyBuf = ev.Row.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
	g, ok := e.groups[string(e.keyBuf)] // allocation-free lookup
	if !ok {
		if e.idx.complete(ev.Row, e.wm) {
			// The group was materialized and evicted before this row
			// arrived, or the row arrives late from the start.
			e.late++
			return nil
		}
		g = &wmGroup{sample: ev.Row.Clone(), rel: tvr.NewRelation()}
		k := string(e.keyBuf)
		e.groups[k] = g
		g.seq = e.idx.add(k, g, g.sample)
	}
	return g.rel.Apply(ev)
}

func (e *emitAfterWatermarkOp) onWatermark(ev tvr.Event) error {
	if ev.Wm <= e.wm {
		return nil
	}
	e.wm = ev.Wm
	for _, c := range e.idx.advance(e.wm) {
		delete(e.groups, c.key)
		// Materialize the final contents of the group, once.
		for _, row := range c.g.rel.Rows() {
			if err := e.out.Push(tvr.InsertEvent(ev.Ptime, row)); err != nil {
				return err
			}
		}
	}
	return e.out.Push(ev)
}

func (e *emitAfterWatermarkOp) Finish() error { return e.out.Finish() }

func (e *emitAfterWatermarkOp) stats(s *Stats) {
	for _, g := range e.groups {
		s.StateRows += g.rel.Len()
	}
	s.StateGroups += len(e.groups)
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

	groups map[string]*delayGroup       // open groups only
	idx    completionIndex[*delayGroup] // which groups a watermark completes
	timers timerHeap
	seq    int
	wm     types.Time
	late   int
	keyBuf []byte // reusable group-key encoding buffer
}

// delayGroup is one event-time group's buffered contents. A group closed by
// the watermark leaves the map and the index but may still be referenced by
// a pending timer: closing fires it, which disarms it, and fire ignores
// disarmed groups — so the stale timer is a no-op when it pops.
type delayGroup struct {
	key     string
	sample  types.Row
	lastMat *tvr.Relation // contents at last materialization
	cur     *tvr.Relation // live contents
	armed   bool
	seq     int // first-seen sequence (snapshot order)
}

type timer struct {
	deadline types.Time
	seq      int // FIFO tiebreak for determinism
	group    *delayGroup
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func newEmitAfterDelay(sch *types.Schema, delay types.Duration, alsoWatermark bool, out sink) *emitAfterDelayOp {
	e := &emitAfterDelayOp{
		out:           out,
		keys:          groupKeysOf(sch),
		delay:         delay,
		alsoWatermark: alsoWatermark,
		groups:        make(map[string]*delayGroup),
		wm:            types.MinTime,
	}
	if alsoWatermark {
		// Without AFTER WATERMARK the index has no event keys: groups never
		// complete and it only numbers them.
		e.idx.keys = e.keys.keys
	}
	return e
}

func (e *emitAfterDelayOp) Push(ev tvr.Event) error {
	// Timers strictly earlier than the new processing time fire first, so
	// emissions remain ptime-ordered. A timer whose deadline equals the
	// event's ptime fires after the event is applied (the paper's Listing
	// 14 shows the 8:18 input included in the 8:18 materialization).
	if err := e.fireDue(ev.Ptime); err != nil {
		return err
	}
	switch ev.Kind {
	case tvr.Watermark:
		return e.onWatermark(ev)
	case tvr.Heartbeat:
		if err := e.fireDueInclusive(ev.Ptime); err != nil {
			return err
		}
		return e.out.Push(ev)
	}
	e.keyBuf = ev.Row.AppendKeyOf(e.keyBuf[:0], e.keys.idxs)
	g, ok := e.groups[string(e.keyBuf)] // allocation-free lookup
	if !ok {
		if e.idx.complete(ev.Row, e.wm) {
			e.late++
			return nil
		}
		g = &delayGroup{
			key:     string(e.keyBuf),
			sample:  ev.Row.Clone(),
			lastMat: tvr.NewRelation(),
			cur:     tvr.NewRelation(),
		}
		e.groups[g.key] = g
		g.seq = e.idx.add(g.key, g, g.sample)
	}
	if err := g.cur.Apply(ev); err != nil {
		return err
	}
	if !g.armed {
		g.armed = true
		e.seq++
		heap.Push(&e.timers, timer{deadline: ev.Ptime.Add(e.delay), seq: e.seq, group: g})
	}
	return nil
}

// fireDue fires timers with deadline strictly before p.
func (e *emitAfterDelayOp) fireDue(p types.Time) error {
	for len(e.timers) > 0 && e.timers[0].deadline < p {
		t := heap.Pop(&e.timers).(timer)
		if err := e.fire(t.group, t.deadline); err != nil {
			return err
		}
	}
	return nil
}

// fireDueInclusive fires timers with deadline at or before p (used for
// heartbeats, which mark "processing time has reached p").
func (e *emitAfterDelayOp) fireDueInclusive(p types.Time) error {
	for len(e.timers) > 0 && e.timers[0].deadline <= p {
		t := heap.Pop(&e.timers).(timer)
		if err := e.fire(t.group, t.deadline); err != nil {
			return err
		}
	}
	return nil
}

// fire materializes the group's pending changes as a diff at ptime p.
func (e *emitAfterDelayOp) fire(g *delayGroup, p types.Time) error {
	if !g.armed {
		return nil
	}
	g.armed = false
	for _, ev := range g.lastMat.Diff(g.cur, p) {
		if err := e.out.Push(ev); err != nil {
			return err
		}
	}
	g.lastMat = g.cur.Clone()
	return nil
}

func (e *emitAfterDelayOp) onWatermark(ev tvr.Event) error {
	if ev.Wm <= e.wm {
		return e.out.Push(tvr.WatermarkEvent(ev.Ptime, e.wm))
	}
	e.wm = ev.Wm
	for _, c := range e.idx.advance(e.wm) {
		delete(e.groups, c.key)
		// Final on-time materialization closes the group.
		g := c.g
		g.armed = true // force the diff even if no timer pending
		if err := e.fire(g, ev.Ptime); err != nil {
			return err
		}
		g.lastMat, g.cur = nil, nil
	}
	return e.out.Push(ev)
}

// Finish flushes all pending timers at their deadlines: the end of the
// recorded input means processing time runs to infinity.
func (e *emitAfterDelayOp) Finish() error {
	for len(e.timers) > 0 {
		t := heap.Pop(&e.timers).(timer)
		if err := e.fire(t.group, t.deadline); err != nil {
			return err
		}
	}
	return e.out.Finish()
}

func (e *emitAfterDelayOp) stats(s *Stats) {
	for _, g := range e.groups {
		s.StateRows += g.cur.Len()
	}
	s.StateGroups += len(e.groups)
	s.LateDropped += e.late
	s.FreedGroups += e.idx.freed
}
