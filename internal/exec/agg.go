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

	groups   map[string]*aggGroup       // open groups only
	idx      completionIndex[*aggGroup] // which groups a watermark completes
	wm       types.Time
	lateDrop int
	keyBuf   []byte // reusable group-key encoding buffer

	// Run cache: the group resolved by the previous data event. Consecutive
	// events for the same key (the common shape inside a batch) compare
	// encoded keys and skip the map probe entirely. The cached pointer stays
	// valid across dispatches; onWatermark invalidates it when the cached
	// group is among those the watermark closes.
	prevKey  []byte
	runGroup *aggGroup
	runValid bool

	keyScratch  types.Row   // reusable group-key evaluation row
	emitScratch types.Row   // reusable candidate-output row (reemit)
	pend        []tvr.Event // per-dispatch output buffer, flushed once
}

// eventKeysOf extracts the aggregate's event-time grouping keys with their
// completion offsets — shared by the serial, partial, and final operators so
// the three stages use one completion rule.
func eventKeysOf(x *plan.Aggregate) []eventKey {
	var out []eventKey
	for _, pos := range x.EventKeyIdxs() {
		out = append(out, eventKey{pos: pos, offset: x.Sch.Cols[pos].WmOffset})
	}
	return out
}

type aggGroup struct {
	keyRow types.Row
	accs   []accumulator
	n      int       // live input rows
	outRow types.Row // last emitted output row (nil if none)
	seq    int       // first-seen sequence (snapshot order)
}

func newAggOp(x *plan.Aggregate, out sink) *aggOp {
	return &aggOp{
		out:    out,
		keys:   x.Keys,
		aggs:   x.Aggs,
		sch:    x.Sch,
		global: x.Global(),
		groups: make(map[string]*aggGroup),
		idx:    completionIndex[*aggGroup]{keys: eventKeysOf(x)},
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
	g := a.newGroup(types.Row{})
	a.groups[""] = g
	g.seq = a.idx.add("", g, g.keyRow)
	a.pend = a.pend[:0]
	a.reemit(g, types.MinTime)
	return a.flush()
}

func (a *aggOp) newGroup(keyRow types.Row) *aggGroup {
	g := &aggGroup{keyRow: keyRow.Clone()}
	g.accs = make([]accumulator, len(a.aggs))
	for i, call := range a.aggs {
		g.accs[i] = newAccumulator(call)
	}
	return g
}

func (a *aggOp) Push(ev tvr.Event) error {
	a.pend = a.pend[:0]
	if err := a.pushEvent(ev); err != nil {
		return err
	}
	return a.flush()
}

// PushBatch implements batchSink: the whole batch runs through the group
// machinery with the outputs gathered into the pending buffer and flushed in
// one downstream dispatch. Consecutive same-key events hit the run cache
// instead of the group map.
func (a *aggOp) PushBatch(evs []tvr.Event) error {
	a.pend = a.pend[:0]
	for i := range evs {
		if err := a.pushEvent(evs[i]); err != nil {
			return err
		}
	}
	return a.flush()
}

// flush hands the pending outputs downstream in one dispatch.
func (a *aggOp) flush() error {
	return pushBatch(a.out, a.pend)
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
	g := a.runGroup
	if !a.runValid || !bytes.Equal(a.keyBuf, a.prevKey) {
		var ok bool
		g, ok = a.groups[string(a.keyBuf)] // allocation-free lookup
		if !ok {
			if a.idx.complete(keyRow, a.wm) {
				// The group was completed (and evicted) before this row
				// arrived, or the row arrives late from the start.
				a.lateDrop++
				return nil
			}
			g = a.newGroup(keyRow)
			gk := string(a.keyBuf)
			a.groups[gk] = g
			g.seq = a.idx.add(gk, g, g.keyRow)
		}
		a.prevKey = append(a.prevKey[:0], a.keyBuf...)
		a.runGroup = g
		a.runValid = true
	}

	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	g.n += delta
	if g.n < 0 {
		return fmt.Errorf("exec: aggregate retraction underflow for group %s", keyRow)
	}
	for i, acc := range g.accs {
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
	a.reemit(g, ev.Ptime)
	return nil
}

// reemit retracts the group's previous output row and emits the current one
// (into the pending buffer). If the output row is unchanged (e.g. a bid below
// the running MAX), nothing is emitted: the output relation did not change,
// so its changelog must not either.
func (a *aggOp) reemit(g *aggGroup, p types.Time) {
	// The candidate row builds in a reusable scratch: a suppressed reemit
	// (e.g. a bid below the running MAX) costs no allocation, and an actual
	// emission clones exactly once.
	var row types.Row
	if g.n > 0 || a.global {
		row = append(a.emitScratch[:0], g.keyRow...)
		for _, acc := range g.accs {
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
	g.outRow = row.Clone()
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
		delete(a.groups, c.key)
		if c.g == a.runGroup {
			a.runValid = false
		}
	}
	a.pend = append(a.pend, ev)
	return nil
}

func (a *aggOp) Finish() error { return a.out.Finish() }

func (a *aggOp) stats(s *Stats) {
	for _, g := range a.groups {
		s.StateRows += g.n
	}
	s.StateGroups += len(a.groups)
	s.LateDropped += a.lateDrop
	s.FreedGroups += a.idx.freed
}

// ---- accumulators ----

// accumulator maintains one aggregate function's state under inserts (+1)
// and retractions (-1).
type accumulator interface {
	update(v types.Value, delta int) error
	value() types.Value
}

// partialCarrier is implemented by accumulators that support two-stage
// (partial/final) aggregation. appendPartial appends the accumulator's
// communicated state — a fixed number of columns per aggregate kind (see
// partialStateWidth) — to a partial-update row; the final aggregate merges
// the latest such state per partition. The encoding must merge *exactly*:
// combining the per-partition states has to reproduce the serial
// accumulator's value at every input prefix, which is why sums stay in exact
// integer arithmetic (plan.twoStageEligible gates out floating-point sums)
// and MIN/MAX communicate only the extremum while the retraction-correct
// multiset stays partition-local.
type partialCarrier interface {
	appendPartial(dst types.Row) types.Row
}

// partialStateWidth is the number of columns an aggregate kind contributes to
// a partial-update row.
func partialStateWidth(kind plan.AggKind) int {
	switch kind {
	case plan.AggCountStar, plan.AggCount:
		return 1 // [count]
	default:
		return 2 // [sum-or-extremum, non-null count]
	}
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

func (c *countStarAcc) appendPartial(dst types.Row) types.Row {
	return append(dst, types.NewInt(c.n))
}

type countAcc struct{ n int64 }

func (c *countAcc) update(v types.Value, delta int) error {
	if !v.IsNull() {
		c.n += int64(delta)
	}
	return nil
}

func (c *countAcc) value() types.Value { return types.NewInt(c.n) }

func (c *countAcc) appendPartial(dst types.Row) types.Row {
	return append(dst, types.NewInt(c.n))
}

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

// appendPartial communicates the raw sum by kind plus the non-null count (so
// the final stage reproduces SUM's zero-input NULL).
func (s *sumAcc) appendPartial(dst types.Row) types.Row {
	var sum types.Value
	switch s.kind {
	case types.KindInt64:
		sum = types.NewInt(s.i)
	case types.KindInterval:
		sum = types.NewInterval(types.Duration(s.i))
	default:
		sum = types.NewFloat(s.f)
	}
	return append(dst, sum, types.NewInt(s.n))
}

// avgAcc keeps the running sum in exact int64 arithmetic while every input is
// a BIGINT, falling back to the order-dependent float sum the moment a
// non-integer contributes. The exact path is what makes AVG mergeable across
// partitions: integer partial sums add associatively, so the final stage's
// float64(totalSum)/totalCount equals the serial value at every prefix.
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

func (a *avgAcc) value() types.Value {
	if a.n == 0 {
		return types.Null()
	}
	if a.inexact {
		return types.NewFloat(a.sumF / float64(a.n))
	}
	return types.NewFloat(float64(a.sumI) / float64(a.n))
}

func (a *avgAcc) appendPartial(dst types.Row) types.Row {
	sum := types.NewInt(a.sumI)
	if a.inexact {
		sum = types.NewFloat(a.sumF)
	}
	return append(dst, sum, types.NewInt(a.n))
}

// minMaxAcc supports retractions by keeping the multiset of values; the
// extremum is cached and recomputed only when it is retracted away. Entries
// are pointers so the steady-state update path — encode into the scratch
// buffer, look up, mutate through the pointer — never materializes a key
// string (only first-seen values allocate).
type minMaxAcc struct {
	min     bool
	counts  map[string]*minMaxEntry
	current types.Value
	valid   bool // current holds the true extremum
	n       int64
	scratch []byte // reusable key-encoding buffer
}

type minMaxEntry struct {
	val   types.Value
	count int
}

func newMinMaxAcc(min bool) *minMaxAcc {
	return &minMaxAcc{min: min, counts: make(map[string]*minMaxEntry), current: types.Null()}
}

func (m *minMaxAcc) update(v types.Value, delta int) error {
	if v.IsNull() {
		return nil
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
		m.current = types.Null()
		for _, e := range m.counts {
			if e.count > 0 && (m.current.IsNull() || m.better(e.val, m.current)) {
				m.current = e.val
			}
		}
		m.valid = true
	}
	return m.current
}

// appendPartial communicates only the partition-local extremum (plus the
// non-null count for NULL semantics); the multiset that keeps it
// retraction-correct never leaves the partition. Sub-bag routing guarantees
// the extremum-of-extremums is the global extremum.
func (m *minMaxAcc) appendPartial(dst types.Row) types.Row {
	return append(dst, m.value(), types.NewInt(m.n))
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
