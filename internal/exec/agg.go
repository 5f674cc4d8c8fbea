package exec

import (
	"bytes"
	"fmt"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// aggOp implements incremental grouped aggregation with retraction support.
// For every input change it retracts the group's previous output row and
// emits the updated one, so downstream state always reflects the pointwise
// aggregate of the input relation.
//
// Event-time grouping keys interact with watermarks exactly as Extension 2
// prescribes: when the watermark passes a group's event-time keys the group
// is complete — late inputs are dropped and the group is evicted (the output
// row, already emitted, is final). See completionIndex for how a watermark
// finds the groups it completes without visiting the rest.
type aggOp struct {
	out    sink
	keys   []plan.Scalar
	aggs   []plan.AggCall
	sch    *types.Schema
	global bool

	groups keyedStore[aggGroup] // open groups only
	// accs holds len(aggs) accumulators per slot of groups, at
	// slot*len(aggs). They outlive the slot's group: the next group in the
	// slot resets them in place, so a group allocates no accumulator.
	accs     []accumulator
	idx      completionIndex // which groups a watermark completes
	wm       types.Time
	lateDrop int
	keyBuf   []byte // reusable group-key encoding buffer

	// Run cache: the group resolved by the previous data event. Consecutive
	// events for the same key (the common shape inside a batch) compare
	// encoded keys and skip the store probe entirely. The cached slot stays
	// valid across dispatches; onWatermark invalidates it when the cached
	// group is among those the watermark closes.
	prevKey  []byte
	runSlot  int32
	runValid bool

	keyScratch  types.Row   // reusable group-key evaluation row
	emitScratch types.Row   // reusable candidate-output row (reemit)
	pend        []tvr.Event // per-dispatch output buffer, flushed once
}

// eventKeysOf extracts the aggregate's event-time grouping keys with their
// completion offsets.
func eventKeysOf(x *plan.Aggregate) []eventKey {
	var out []eventKey
	for _, pos := range x.EventKeyIdxs() {
		out = append(out, eventKey{pos: pos, offset: x.Sch.Cols[pos].WmOffset})
	}
	return out
}

// aggGroup is one open group; its accumulators are the slot's in aggOp.accs.
type aggGroup struct {
	keyRow types.Row
	n      int       // live input rows
	outRow types.Row // last emitted output row (nil if none)
}

func newAggOp(x *plan.Aggregate, out sink) *aggOp {
	return &aggOp{
		out:    out,
		keys:   x.Keys,
		aggs:   x.Aggs,
		sch:    x.Sch,
		global: x.Global(),
		idx:    completionIndex{keys: eventKeysOf(x)},
		wm:     types.MinTime,
	}
}

// Open emits the initial row of a global aggregate: SQL semantics give a
// keyless aggregation exactly one row even over empty input (COUNT=0, other
// aggregates NULL).
func (a *aggOp) Open() error {
	if !a.global {
		return nil
	}
	a.reemit(a.openGroup(nil, types.Row{}), types.MinTime)
	return flush(a.out, &a.pend)
}

// openGroup inserts a group under key, with its accumulators reset, and
// registers it with the completion index. Its key row is a copy of keyRow
// with room for the aggregate values behind it: the group's first output
// row is the key row extended in place (see reemit).
func (a *aggOp) openGroup(key []byte, keyRow types.Row) int32 {
	s := a.groups.insert(key)
	g := a.groups.at(s)
	g.keyRow = make(types.Row, len(keyRow), len(keyRow)+len(a.aggs))
	copy(g.keyRow, keyRow)
	if na := len(a.aggs); int(s)*na < len(a.accs) {
		for _, acc := range a.accsOf(s) {
			acc.reset()
		}
	} else {
		for _, call := range a.aggs {
			a.accs = append(a.accs, newAccumulator(call))
		}
	}
	a.idx.add(s, keyRow)
	return s
}

// accsOf is the accumulators of the group in slot s.
func (a *aggOp) accsOf(s int32) []accumulator {
	na := len(a.aggs)
	return a.accs[int(s)*na : int(s)*na+na]
}

// PushBatch implements sink: the whole batch runs through the group
// machinery with the outputs gathered into the pending buffer and flushed in
// one downstream dispatch. Consecutive same-key events hit the run cache
// instead of the group store.
func (a *aggOp) PushBatch(evs []tvr.Event) error {
	for i := range evs {
		if err := a.pushEvent(evs[i]); err != nil {
			return err
		}
	}
	return flush(a.out, &a.pend)
}

// pushEvent applies one event to group state, appending any output events to
// the pending buffer.
func (a *aggOp) pushEvent(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		return a.onWatermark(ev)
	case tvr.Heartbeat:
		a.pend = append(a.pend, ev)
		return nil
	}

	if a.keyScratch == nil && len(a.keys) > 0 {
		a.keyScratch = make(types.Row, len(a.keys))
	}
	keyRow := a.keyScratch[:len(a.keys)]
	for i, k := range a.keys {
		v, err := k.Eval(ev.Row)
		if err != nil {
			return err
		}
		keyRow[i] = v
	}
	a.keyBuf = keyRow.AppendKey(a.keyBuf[:0])
	s := a.runSlot
	if !a.runValid || !bytes.Equal(a.keyBuf, a.prevKey) {
		s = a.groups.find(a.keyBuf)
		if s < 0 {
			if a.idx.complete(keyRow, a.wm) {
				// The group was completed (and evicted) before this row
				// arrived, or the row arrives late from the start.
				a.lateDrop++
				return nil
			}
			s = a.openGroup(a.keyBuf, keyRow)
		}
		a.prevKey = append(a.prevKey[:0], a.keyBuf...)
		a.runSlot = s
		a.runValid = true
	}

	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	g := a.groups.at(s)
	g.n += delta
	if g.n < 0 {
		return fmt.Errorf("exec: aggregate retraction underflow for group %s", keyRow)
	}
	for i, acc := range a.accsOf(s) {
		var arg types.Value
		if a.aggs[i].Arg != nil {
			v, err := a.aggs[i].Arg.Eval(ev.Row)
			if err != nil {
				return err
			}
			arg = v
		}
		if err := acc.update(arg, delta); err != nil {
			return err
		}
	}
	a.reemit(s, ev.Ptime)
	return nil
}

// reemit retracts the group's previous output row and emits the current one
// (into the pending buffer). If the output row is unchanged (e.g. a bid below
// the running MAX), nothing is emitted: the output relation did not change,
// so its changelog must not either.
func (a *aggOp) reemit(s int32, p types.Time) {
	// The candidate row builds in a reusable scratch: a suppressed reemit
	// (e.g. a bid below the running MAX) costs no allocation, and an actual
	// emission copies it once, into the group's key row on the first.
	g := a.groups.at(s)
	var row types.Row
	if g.n > 0 || a.global {
		row = append(a.emitScratch[:0], g.keyRow...)
		for _, acc := range a.accsOf(s) {
			row = append(row, acc.value())
		}
		a.emitScratch = row[:0]
	}
	if g.outRow != nil && row != nil && g.outRow.Equal(row) {
		return
	}
	if g.outRow != nil {
		a.pend = append(a.pend, tvr.DeleteEvent(p, g.outRow))
		g.outRow = nil
	}
	if row == nil {
		return
	}
	if nk := len(g.keyRow); cap(g.keyRow) == len(row) {
		// The spare capacity openGroup gave the key row becomes the first
		// output row's aggregate values. Neither row is written again: the
		// key row is clipped to its length, so no later emission reuses
		// the space.
		g.outRow = g.keyRow[:len(row)]
		copy(g.outRow[nk:], row[nk:])
		g.keyRow = g.keyRow[:nk:nk]
	} else {
		g.outRow = row.Clone()
	}
	a.pend = append(a.pend, tvr.InsertEvent(p, g.outRow))
}

// onWatermark advances the watermark, evicts the groups it completes (their
// emitted output rows are final; a later row for one is late by the complete
// check in pushEvent), and forwards the watermark downstream (via the pending
// buffer).
func (a *aggOp) onWatermark(ev tvr.Event) error {
	if ev.Wm <= a.wm {
		return nil
	}
	a.wm = ev.Wm
	for _, c := range a.idx.advance(a.wm) {
		a.groups.remove(c.slot)
		if c.slot == a.runSlot {
			a.runValid = false
		}
	}
	a.pend = append(a.pend, ev)
	return nil
}

func (a *aggOp) Finish() error { return a.out.Finish() }

func (a *aggOp) stats(s *Stats) {
	for sl := a.groups.first(); sl >= 0; sl = a.groups.next(sl) {
		s.StateRows += a.groups.at(sl).n
	}
	s.StateGroups += a.groups.len()
	s.LateDropped += a.lateDrop
	s.FreedGroups += a.idx.freed
}

// ---- accumulators ----

// accumulator maintains one aggregate function's state under inserts (+1)
// and retractions (-1). reset returns it to its state over no input, for the
// next group of its slot.
type accumulator interface {
	update(v types.Value, delta int) error
	value() types.Value
	reset()
}

func newAccumulator(call plan.AggCall) accumulator {
	var inner accumulator
	switch call.Kind {
	case plan.AggCountStar:
		return &countStarAcc{}
	case plan.AggCount:
		inner = &countAcc{}
	case plan.AggSum:
		inner = newSumAcc(call.K)
	case plan.AggAvg:
		inner = &avgAcc{}
	case plan.AggMin:
		inner = newMinMaxAcc(true)
	case plan.AggMax:
		inner = newMinMaxAcc(false)
	}
	if call.Distinct {
		return &distinctAcc{inner: inner, counts: make(map[string]*distinctEntry)}
	}
	return inner
}

type countStarAcc struct{ n int64 }

func (c *countStarAcc) update(_ types.Value, delta int) error {
	c.n += int64(delta)
	return nil
}

func (c *countStarAcc) value() types.Value { return types.NewInt(c.n) }

func (c *countStarAcc) reset() { c.n = 0 }

type countAcc struct{ n int64 }

func (c *countAcc) update(v types.Value, delta int) error {
	if !v.IsNull() {
		c.n += int64(delta)
	}
	return nil
}

func (c *countAcc) value() types.Value { return types.NewInt(c.n) }

func (c *countAcc) reset() { c.n = 0 }

// sumAcc keeps exact integer sums for BIGINT and float sums otherwise; SUM
// over zero non-NULL inputs is NULL per SQL.
type sumAcc struct {
	kind types.Kind
	i    int64
	f    float64
	n    int64
}

func newSumAcc(k types.Kind) *sumAcc { return &sumAcc{kind: k} }

func (s *sumAcc) update(v types.Value, delta int) error {
	if v.IsNull() {
		return nil
	}
	s.n += int64(delta)
	switch s.kind {
	case types.KindInt64:
		s.i += int64(delta) * v.Int()
	case types.KindInterval:
		s.i += int64(delta) * int64(v.Interval())
	default:
		s.f += float64(delta) * v.AsFloat()
	}
	return nil
}

func (s *sumAcc) reset() { *s = sumAcc{kind: s.kind} }

func (s *sumAcc) value() types.Value {
	if s.n == 0 {
		return types.Null()
	}
	switch s.kind {
	case types.KindInt64:
		return types.NewInt(s.i)
	case types.KindInterval:
		return types.NewInterval(types.Duration(s.i))
	default:
		return types.NewFloat(s.f)
	}
}

// avgAcc keeps the running sum in exact int64 arithmetic while every input is
// a BIGINT, falling back to the order-dependent float sum the moment a
// non-integer contributes. The exact path makes the average independent of
// the order inserts and retractions arrive in; output bytes depend on it.
type avgAcc struct {
	sumI    int64
	sumF    float64
	n       int64
	inexact bool
}

func (a *avgAcc) update(v types.Value, delta int) error {
	if v.IsNull() {
		return nil
	}
	if v.Kind() == types.KindInt64 {
		a.sumI += int64(delta) * v.Int()
	} else {
		a.inexact = true
	}
	a.sumF += float64(delta) * v.AsFloat()
	a.n += int64(delta)
	return nil
}

func (a *avgAcc) reset() { *a = avgAcc{} }

func (a *avgAcc) value() types.Value {
	if a.n == 0 {
		return types.Null()
	}
	if a.inexact {
		return types.NewFloat(a.sumF / float64(a.n))
	}
	return types.NewFloat(float64(a.sumI) / float64(a.n))
}

// minMaxAcc supports retractions by keeping the multiset of values; the
// extremum is cached and recomputed only when it is retracted away.
//
// Most groups only ever see one distinct value (a window group that one bid
// opens), so the first distinct value lives inline, in one and oneCount, and
// the keyed multiset is built only when a second distinct value arrives; from
// then on counts holds every value, one included. Values are the same
// multiset member when their keys are (types.SameKey, the identity the map's
// AppendKey keys give). Map entries are pointers so the steady-state update
// path — encode into the scratch buffer, look up, mutate through the pointer
// — never materializes a key string (only first-seen values allocate).
type minMaxAcc struct {
	min      bool
	one      types.Value // the only distinct value, while counts is nil
	oneCount int         // its multiplicity; 0 when the multiset is empty
	counts   map[string]*minMaxEntry
	current  types.Value
	valid    bool // current holds the true extremum
	n        int64
	scratch  []byte // reusable key-encoding buffer
}

type minMaxEntry struct {
	val   types.Value
	count int
}

func newMinMaxAcc(min bool) *minMaxAcc {
	return &minMaxAcc{min: min, current: types.Null()}
}

func (m *minMaxAcc) reset() {
	*m = minMaxAcc{min: m.min, current: types.Null(), scratch: m.scratch[:0]}
}

func (m *minMaxAcc) update(v types.Value, delta int) error {
	if v.IsNull() {
		return nil
	}
	if m.counts == nil && (m.oneCount == 0 || types.SameKey(m.one, v)) {
		// Like a map entry, the member keeps the latest value written under
		// its key as its representative.
		m.one = v
		m.oneCount += delta
		if m.oneCount < 0 {
			return fmt.Errorf("exec: MIN/MAX retraction of absent value %s", v)
		}
		if m.oneCount == 0 {
			m.one = types.Null()
		}
	} else if err := m.updateCounts(v, delta); err != nil {
		return err
	}
	m.n += int64(delta)
	if delta > 0 {
		if !m.valid || m.better(v, m.current) {
			m.current = v
			m.valid = true
		}
	} else if m.valid && v.Equal(m.current) {
		// The extremum may have been retracted; recompute lazily.
		m.valid = false
	}
	return nil
}

// updateCounts applies the update to the keyed multiset, first moving the
// inline value into it when v is the second distinct value.
func (m *minMaxAcc) updateCounts(v types.Value, delta int) error {
	if m.counts == nil {
		m.counts = make(map[string]*minMaxEntry)
		m.scratch = m.one.AppendKey(m.scratch[:0])
		m.counts[string(m.scratch)] = &minMaxEntry{val: m.one, count: m.oneCount}
		m.one, m.oneCount = types.Null(), 0
	}
	m.scratch = v.AppendKey(m.scratch[:0])
	e, ok := m.counts[string(m.scratch)]
	if !ok {
		e = &minMaxEntry{}
		m.counts[string(m.scratch)] = e
	}
	e.val = v
	e.count += delta
	if e.count < 0 {
		return fmt.Errorf("exec: MIN/MAX retraction of absent value %s", v)
	}
	if e.count == 0 {
		delete(m.counts, string(m.scratch))
	}
	return nil
}

func (m *minMaxAcc) better(a, b types.Value) bool {
	if b.IsNull() {
		return true
	}
	c, err := a.Compare(b)
	if err != nil {
		return false
	}
	if m.min {
		return c < 0
	}
	return c > 0
}

func (m *minMaxAcc) value() types.Value {
	if m.n == 0 {
		return types.Null()
	}
	if !m.valid {
		m.current = m.one // NULL unless the value is inline
		for _, e := range m.counts {
			if e.count > 0 && (m.current.IsNull() || m.better(e.val, m.current)) {
				m.current = e.val
			}
		}
		m.valid = true
	}
	return m.current
}

// distinctAcc wraps another accumulator, forwarding only multiplicity
// transitions 0->1 and 1->0 so the inner state sees each distinct value once.
type distinctAcc struct {
	inner   accumulator
	counts  map[string]*distinctEntry
	scratch []byte
}

type distinctEntry struct {
	val   types.Value
	count int
}

func (d *distinctAcc) update(v types.Value, delta int) error {
	if v.IsNull() {
		return nil
	}
	d.scratch = v.AppendKey(d.scratch[:0])
	e, ok := d.counts[string(d.scratch)]
	if !ok {
		e = &distinctEntry{}
		d.counts[string(d.scratch)] = e
	}
	e.val = v
	before := e.count
	e.count += delta
	if e.count < 0 {
		return fmt.Errorf("exec: DISTINCT aggregate retraction of absent value %s", v)
	}
	if e.count == 0 {
		delete(d.counts, string(d.scratch))
	}
	if before == 0 && e.count > 0 {
		return d.inner.update(v, 1)
	}
	if before > 0 && e.count == 0 {
		return d.inner.update(v, -1)
	}
	return nil
}

func (d *distinctAcc) value() types.Value { return d.inner.value() }

func (d *distinctAcc) reset() {
	clear(d.counts)
	d.inner.reset()
}
