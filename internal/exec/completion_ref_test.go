package exec

// Test-only reference operators: the three watermark-completing operators as
// they were before the completionIndex — every group ever created stays in
// the map behind a dead/done tombstone, and every advancing watermark walks
// the whole first-seen order slice probing each entry. The property test in
// completion_test.go drives each production operator and its reference
// through the same random changelogs and requires byte-identical output and
// identical late/freed accounting. The references share the production
// accumulators, relations and completion predicate; only the group
// bookkeeping under test is duplicated.

import (
	"container/heap"
	"fmt"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// refAggGroup is the pre-eviction aggregate group.
type refAggGroup struct {
	keyRow types.Row
	accs   []accumulator
	n      int
	outRow types.Row
	dead   bool
}

// refGroups is the aggregate reference's group bookkeeping: the map that
// never shrinks, the first-seen order, and the walk over it.
type refGroups struct {
	out      sink
	evKeys   []eventKey
	groups   map[string]*refAggGroup
	order    []string
	wm       types.Time
	lateDrop int
	freed    int
}

func newRefGroups(x *plan.Aggregate, out sink) refGroups {
	return refGroups{out: out, evKeys: eventKeysOf(x), groups: map[string]*refAggGroup{}, wm: types.MinTime}
}

// control handles watermarks and heartbeats the pre-change way: an advancing
// watermark visits every group ever created, probing the map for each, and
// tombstones the complete ones.
func (r *refGroups) control(ev tvr.Event) error {
	if ev.Kind == tvr.Watermark {
		if ev.Wm <= r.wm {
			return nil
		}
		r.wm = ev.Wm
		if len(r.evKeys) > 0 {
			for _, gk := range r.order {
				g := r.groups[gk]
				if g == nil || g.dead {
					continue
				}
				if groupComplete(r.evKeys, g.keyRow, r.wm) {
					g.accs = nil
					g.dead = true
					r.freed++
				}
			}
		}
	}
	return push(r.out, ev)
}

// resolve finds or creates the group for keyRow; nil means the row is late —
// its group is a tombstone, or it is absent and already complete.
func (r *refGroups) resolve(keyRow types.Row) *refAggGroup {
	gk := keyRow.Key()
	g, ok := r.groups[gk]
	if !ok {
		if groupComplete(r.evKeys, keyRow, r.wm) {
			r.lateDrop++
			return nil
		}
		g = &refAggGroup{keyRow: keyRow.Clone()}
		r.groups[gk] = g
		r.order = append(r.order, gk)
	}
	if g.dead {
		r.lateDrop++
		return nil
	}
	return g
}

// reemit is the aggregate's retract/emit/suppress step.
func (r *refGroups) reemit(g *refAggGroup, row types.Row, p types.Time) error {
	if g.outRow != nil && row != nil && g.outRow.Equal(row) {
		return nil
	}
	if g.outRow != nil {
		if err := push(r.out, tvr.DeleteEvent(p, g.outRow)); err != nil {
			return err
		}
		g.outRow = nil
	}
	if row == nil {
		return nil
	}
	g.outRow = row
	return push(r.out, tvr.InsertEvent(p, row))
}

func (r *refGroups) Finish() error { return r.out.Finish() }

func (r *refGroups) refStats(s *Stats, rows func(*refAggGroup) int) {
	live := 0
	for _, g := range r.groups {
		if !g.dead {
			live++
			s.StateRows += rows(g)
		}
	}
	s.StateGroups += live
	s.LateDropped += r.lateDrop
	s.FreedGroups += r.freed
}

// refAccumulate is the aggregate reference's data path: evaluate the keys,
// resolve the group, fold the event into its accumulators. A nil group means
// the row was dropped as late.
func (r *refGroups) refAccumulate(keys []plan.Scalar, aggs []plan.AggCall, ev tvr.Event) (*refAggGroup, error) {
	keyRow := make(types.Row, len(keys))
	for i, k := range keys {
		v, err := k.Eval(ev.Row)
		if err != nil {
			return nil, err
		}
		keyRow[i] = v
	}
	g := r.resolve(keyRow)
	if g == nil {
		return nil, nil
	}
	if g.accs == nil {
		g.accs = make([]accumulator, len(aggs))
		for i, call := range aggs {
			g.accs[i] = newAccumulator(call)
		}
	}
	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	g.n += delta
	if g.n < 0 {
		return nil, fmt.Errorf("exec: aggregate retraction underflow for group %s", keyRow)
	}
	for i, acc := range g.accs {
		var arg types.Value
		if aggs[i].Arg != nil {
			v, err := aggs[i].Arg.Eval(ev.Row)
			if err != nil {
				return nil, err
			}
			arg = v
		}
		if err := acc.update(arg, delta); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// ---- aggregate ----

type refAggOp struct {
	refGroups
	keys []plan.Scalar
	aggs []plan.AggCall
}

func newRefAggOp(x *plan.Aggregate, out sink) *refAggOp {
	return &refAggOp{refGroups: newRefGroups(x, out), keys: x.Keys, aggs: x.Aggs}
}

func (a *refAggOp) Push(ev tvr.Event) error {
	if !ev.IsData() {
		return a.control(ev)
	}
	g, err := a.refAccumulate(a.keys, a.aggs, ev)
	if g == nil {
		return err
	}
	var row types.Row
	if g.n > 0 {
		row = g.keyRow.Clone()
		for _, acc := range g.accs {
			row = append(row, acc.value())
		}
	}
	return a.reemit(g, row, ev.Ptime)
}

func (a *refAggOp) stats(s *Stats) {
	a.refStats(s, func(g *refAggGroup) int { return g.n })
}

// ---- EMIT AFTER WATERMARK ----

type refWmGroup struct {
	sample types.Row
	rel    *tvr.Relation
	done   bool
}

type refEmitAfterWatermarkOp struct {
	out    sink
	keys   emitGroupKeys
	groups map[string]*refWmGroup
	order  []string
	wm     types.Time
	late   int
	freed  int
}

func newRefEmitAfterWatermark(sch *types.Schema, out sink) *refEmitAfterWatermarkOp {
	return &refEmitAfterWatermarkOp{
		out: out, keys: groupKeysOf(sch), groups: map[string]*refWmGroup{}, wm: types.MinTime,
	}
}

func (e *refEmitAfterWatermarkOp) Push(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		if ev.Wm <= e.wm {
			return nil
		}
		e.wm = ev.Wm
		for _, k := range e.order {
			g := e.groups[k]
			if g == nil || g.done || !groupComplete(e.keys.keys, g.sample, e.wm) {
				continue
			}
			for _, row := range g.rel.Rows() {
				if err := push(e.out, tvr.InsertEvent(ev.Ptime, row)); err != nil {
					return err
				}
			}
			g.rel = nil
			g.done = true
			e.freed++
		}
		return push(e.out, ev)
	case tvr.Heartbeat:
		return push(e.out, ev)
	}
	k := ev.Row.KeyOf(e.keys.idxs)
	g, ok := e.groups[k]
	if ok && g.done {
		e.late++
		return nil
	}
	if !ok {
		if groupComplete(e.keys.keys, ev.Row, e.wm) {
			e.late++
			return nil
		}
		g = &refWmGroup{sample: ev.Row.Clone(), rel: tvr.NewRelation()}
		e.groups[k] = g
		e.order = append(e.order, k)
	}
	return g.rel.Apply(ev)
}

func (e *refEmitAfterWatermarkOp) Finish() error { return e.out.Finish() }
func (e *refEmitAfterWatermarkOp) stats(s *Stats) {
	live := 0
	for _, g := range e.groups {
		if !g.done {
			live++
			s.StateRows += g.rel.Len()
		}
	}
	s.StateGroups += live
	s.LateDropped += e.late
	s.FreedGroups += e.freed
}

// ---- EMIT AFTER DELAY [AND AFTER WATERMARK] ----

type refDelayGroup struct {
	sample  types.Row
	lastMat *tvr.Relation
	cur     *tvr.Relation
	armed   bool
	done    bool
}

type refTimer struct {
	deadline types.Time
	seq      int
	group    *refDelayGroup
}

type refTimerHeap []refTimer

func (h refTimerHeap) Len() int { return len(h) }
func (h refTimerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h refTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refTimerHeap) Push(x any)   { *h = append(*h, x.(refTimer)) }
func (h *refTimerHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

type refEmitAfterDelayOp struct {
	out           sink
	keys          emitGroupKeys
	delay         types.Duration
	alsoWatermark bool

	groups map[string]*refDelayGroup
	order  []string
	timers refTimerHeap
	seq    int
	wm     types.Time
	late   int
	freed  int
}

func newRefEmitAfterDelay(sch *types.Schema, delay types.Duration, alsoWatermark bool, out sink) *refEmitAfterDelayOp {
	return &refEmitAfterDelayOp{
		out: out, keys: groupKeysOf(sch), delay: delay, alsoWatermark: alsoWatermark,
		groups: map[string]*refDelayGroup{}, wm: types.MinTime,
	}
}

func (e *refEmitAfterDelayOp) Push(ev tvr.Event) error {
	if err := e.fireThrough(ev.Ptime, false); err != nil {
		return err
	}
	switch ev.Kind {
	case tvr.Watermark:
		if ev.Wm <= e.wm {
			return push(e.out, tvr.WatermarkEvent(ev.Ptime, e.wm))
		}
		e.wm = ev.Wm
		if e.alsoWatermark {
			for _, k := range e.order {
				g := e.groups[k]
				if g == nil || g.done || !groupComplete(e.keys.keys, g.sample, e.wm) {
					continue
				}
				g.armed = true
				if err := e.fire(g, ev.Ptime); err != nil {
					return err
				}
				g.done = true
				g.lastMat, g.cur = nil, nil
				e.freed++
			}
		}
		return push(e.out, ev)
	case tvr.Heartbeat:
		if err := e.fireThrough(ev.Ptime, true); err != nil {
			return err
		}
		return push(e.out, ev)
	}
	k := ev.Row.KeyOf(e.keys.idxs)
	g, ok := e.groups[k]
	if ok && g.done {
		e.late++
		return nil
	}
	if !ok {
		if e.alsoWatermark && groupComplete(e.keys.keys, ev.Row, e.wm) {
			e.late++
			return nil
		}
		g = &refDelayGroup{sample: ev.Row.Clone(), lastMat: tvr.NewRelation(), cur: tvr.NewRelation()}
		e.groups[k] = g
		e.order = append(e.order, k)
	}
	if err := g.cur.Apply(ev); err != nil {
		return err
	}
	if !g.armed {
		g.armed = true
		e.seq++
		heap.Push(&e.timers, refTimer{deadline: ev.Ptime.Add(e.delay), seq: e.seq, group: g})
	}
	return nil
}

// fireThrough fires timers with deadline before p (or at p when inclusive).
func (e *refEmitAfterDelayOp) fireThrough(p types.Time, inclusive bool) error {
	for len(e.timers) > 0 && (e.timers[0].deadline < p || inclusive && e.timers[0].deadline == p) {
		t := heap.Pop(&e.timers).(refTimer)
		if err := e.fire(t.group, t.deadline); err != nil {
			return err
		}
	}
	return nil
}

func (e *refEmitAfterDelayOp) fire(g *refDelayGroup, p types.Time) error {
	if g.done || !g.armed {
		return nil
	}
	g.armed = false
	for _, ev := range g.lastMat.Diff(g.cur, p) {
		if err := push(e.out, ev); err != nil {
			return err
		}
	}
	g.lastMat = g.cur.Clone()
	return nil
}

func (e *refEmitAfterDelayOp) Finish() error {
	for len(e.timers) > 0 {
		t := heap.Pop(&e.timers).(refTimer)
		if err := e.fire(t.group, t.deadline); err != nil {
			return err
		}
	}
	return e.out.Finish()
}

func (e *refEmitAfterDelayOp) stats(s *Stats) {
	live := 0
	for _, g := range e.groups {
		if !g.done {
			live++
			s.StateRows += g.cur.Len()
		}
	}
	s.StateGroups += live
	s.LateDropped += e.late
	s.FreedGroups += e.freed
}
