package exec

import (
	"bytes"
	"fmt"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Two-stage (partial/final) aggregation: the classic combiner rewrite that
// parallelizes a GROUP BY whose keys do not preserve the inherited hash
// routing. A partialAggOp runs at the top of every partition chain,
// accumulating per-group partial states keyed by the *new* group columns; on
// every input change it emits one partial-update event — a state snapshot,
// not a retraction pair — tagged with the causing delivery's sequence number.
// The merge stage reassembles the snapshots in global sequence order (= the
// serial driver's input order) and the finalAggOp in the serial tail replaces
// the originating partition's contribution and re-derives the group's output
// row with the serial aggregate's exact retract/emit/suppress behavior.
//
// The contract that keeps the merged output byte-identical to serial
// execution (see plan.twoStageEligible and accumulator.appendPartial):
//
//  1. Every accumulator state merges *exactly*: combining the per-partition
//     partial states reproduces the serial accumulator's value after any
//     input prefix (integer sums add associatively; MIN/MAX communicate the
//     partition extremum over a partition-local retraction-correct multiset).
//  2. Each data delivery is processed by exactly one partition and yields
//     exactly one partial update (the group's live-row count changes on
//     every data event), so final-stage state transitions are in bijection
//     with the serial aggregate's.
//  3. Routing keeps each partition's input a sub-bag of the global input
//     (inherited hash constraint, or full-row hashing when there is none),
//     so a retraction always lands where the matching insert did.
//
// Partial-update row layout: [group keys..., live-row count n, per-call
// state...] with per-call widths given by partialStateWidth.

// partialAggOp is the per-partition half of a two-stage aggregate.
type partialAggOp struct {
	out  sink
	keys []plan.Scalar
	aggs []plan.AggCall

	groups   map[string]*partialGroup       // open groups only
	idx      completionIndex[*partialGroup] // which groups a watermark completes
	wm       types.Time
	lateDrop int
	keyBuf   []byte
	rowWidth int

	// Run cache + scratch, mirroring aggOp: consecutive same-key events skip
	// the map probe, and the key-evaluation row is reused. onWatermark
	// invalidates the cache when it evicts the cached group.
	prevKey    []byte
	runGroup   *partialGroup
	runValid   bool
	keyScratch types.Row
	pend       []tvr.Event // per-dispatch output buffer, flushed once
}

type partialGroup struct {
	keyRow types.Row
	accs   []accumulator
	n      int
	seq    int // first-seen sequence (snapshot order)
}

func newPartialAggOp(x *plan.Aggregate, out sink) (*partialAggOp, error) {
	p := &partialAggOp{
		out:    out,
		keys:   x.Keys,
		aggs:   x.Aggs,
		groups: make(map[string]*partialGroup),
		idx:    completionIndex[*partialGroup]{keys: eventKeysOf(x)},
		wm:     types.MinTime,
	}
	p.rowWidth = len(x.Keys) + 1
	for _, call := range x.Aggs {
		if _, ok := newAccumulator(call).(partialCarrier); !ok {
			return nil, fmt.Errorf("exec: aggregate %s has no partial/final form", call.Describe())
		}
		p.rowWidth += partialStateWidth(call.Kind)
	}
	return p, nil
}

func (p *partialAggOp) Push(ev tvr.Event) error {
	p.pend = p.pend[:0]
	if err := p.pushEvent(ev); err != nil {
		return err
	}
	return pushBatch(p.out, p.pend)
}

// PushBatch implements batchSink, mirroring aggOp: group updates for the
// whole batch, one downstream dispatch for the snapshots.
func (p *partialAggOp) PushBatch(evs []tvr.Event) error {
	p.pend = p.pend[:0]
	for i := range evs {
		if err := p.pushEvent(evs[i]); err != nil {
			return err
		}
	}
	return pushBatch(p.out, p.pend)
}

func (p *partialAggOp) pushEvent(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		return p.onWatermark(ev)
	case tvr.Heartbeat:
		p.pend = append(p.pend, ev)
		return nil
	}

	if p.keyScratch == nil && len(p.keys) > 0 {
		p.keyScratch = make(types.Row, len(p.keys))
	}
	keyRow := p.keyScratch[:len(p.keys)]
	for i, k := range p.keys {
		v, err := k.Eval(ev.Row)
		if err != nil {
			return err
		}
		keyRow[i] = v
	}
	p.keyBuf = keyRow.AppendKey(p.keyBuf[:0])
	g := p.runGroup
	if !p.runValid || !bytes.Equal(p.keyBuf, p.prevKey) {
		var ok bool
		g, ok = p.groups[string(p.keyBuf)]
		if !ok {
			if p.idx.complete(keyRow, p.wm) {
				p.lateDrop++
				return nil
			}
			g = &partialGroup{keyRow: keyRow.Clone(), accs: make([]accumulator, len(p.aggs))}
			for i, call := range p.aggs {
				g.accs[i] = newAccumulator(call)
			}
			gk := string(p.keyBuf)
			p.groups[gk] = g
			g.seq = p.idx.add(gk, g, g.keyRow)
		}
		p.prevKey = append(p.prevKey[:0], p.keyBuf...)
		p.runGroup = g
		p.runValid = true
	}

	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	g.n += delta
	if g.n < 0 {
		// Sub-bag routing makes this exactly the serial underflow case.
		return fmt.Errorf("exec: aggregate retraction underflow for group %s", keyRow)
	}
	for i, acc := range g.accs {
		var arg types.Value
		if p.aggs[i].Arg != nil {
			v, err := p.aggs[i].Arg.Eval(ev.Row)
			if err != nil {
				return err
			}
			arg = v
		}
		if err := acc.update(arg, delta); err != nil {
			return err
		}
	}

	// One state snapshot per data delivery; the rows are fresh allocations,
	// so the final stage may retain them without cloning.
	row := make(types.Row, 0, p.rowWidth)
	row = append(row, g.keyRow...)
	row = append(row, types.NewInt(int64(g.n)))
	for _, acc := range g.accs {
		row = acc.(partialCarrier).appendPartial(row)
	}
	p.pend = append(p.pend, tvr.Event{Ptime: ev.Ptime, Kind: tvr.Insert, Row: row})
	return nil
}

// onWatermark mirrors the serial aggregate: advance, evict complete groups,
// forward (via the pending buffer). The final stage performs the same
// completion on the merged watermark, so late input is dropped here — before
// it can reach the tail — exactly when the serial aggregate would drop it.
func (p *partialAggOp) onWatermark(ev tvr.Event) error {
	if ev.Wm <= p.wm {
		return nil
	}
	p.wm = ev.Wm
	for _, c := range p.idx.advance(p.wm) {
		delete(p.groups, c.key)
		if c.g == p.runGroup {
			p.runValid = false
		}
	}
	p.pend = append(p.pend, ev)
	return nil
}

func (p *partialAggOp) Finish() error { return p.out.Finish() }

func (p *partialAggOp) stats(s *Stats) {
	for _, g := range p.groups {
		s.StateRows += g.n
	}
	s.StateGroups += len(p.groups)
	s.LateDropped += p.lateDrop
	s.FreedGroups += p.idx.freed
}

// finalAggOp is the serial-tail half of a two-stage aggregate. It receives
// partial-update snapshots through the exchange (PushPartial carries the
// originating partition), replaces that partition's stored contribution, and
// re-emits the merged group row with the serial aggregate's retract/emit/
// suppress semantics. Control events arrive through the ordinary sink Push.
type finalAggOp struct {
	out   sink
	aggs  []plan.AggCall
	nKeys int
	parts int
	// widths/offsets of each call's state inside the snapshot suffix
	// (after the live-row count column).
	offs   []int
	global bool

	groups   map[string]*finalGroup       // open groups only
	idx      completionIndex[*finalGroup] // which groups a watermark completes
	wm       types.Time
	lateDrop int
	keyBuf   []byte
}

type finalGroup struct {
	keyRow types.Row
	snaps  []types.Row // per-partition snapshot suffix [n, states...]; nil = none yet
	outRow types.Row
	seq    int // first-seen sequence (snapshot order)
}

func newFinalAggOp(x *plan.Aggregate, parts int, out sink) *finalAggOp {
	f := &finalAggOp{
		out:    out,
		aggs:   x.Aggs,
		nKeys:  len(x.Keys),
		parts:  parts,
		global: x.Global(),
		groups: make(map[string]*finalGroup),
		idx:    completionIndex[*finalGroup]{keys: eventKeysOf(x)},
		wm:     types.MinTime,
	}
	off := 1 // snapshot suffix starts with the live-row count
	for _, call := range x.Aggs {
		f.offs = append(f.offs, off)
		off += partialStateWidth(call.Kind)
	}
	return f
}

// Open emits the initial row of a global aggregate, exactly as the serial
// operator does: SQL gives a keyless aggregation one row even over empty
// input. The partial stages stay silent at open so the row appears once.
func (f *finalAggOp) Open() error {
	if !f.global {
		return nil
	}
	g := f.newGroup(types.Row{})
	f.groups[""] = g
	g.seq = f.idx.add("", g, g.keyRow)
	return f.reemit(g, types.MinTime)
}

func (f *finalAggOp) newGroup(keyRow types.Row) *finalGroup {
	return &finalGroup{keyRow: keyRow.Clone(), snaps: make([]types.Row, f.parts)}
}

// Push handles control events; data events must arrive via PushPartial.
func (f *finalAggOp) Push(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Watermark:
		return f.onWatermark(ev)
	case tvr.Heartbeat:
		return f.out.Push(ev)
	default:
		return fmt.Errorf("exec: internal: final aggregate received a data event without partition origin")
	}
}

// PushPartial folds one partition's state snapshot into the merged group.
func (f *finalAggOp) PushPartial(part int, ev tvr.Event) error {
	keyRow := ev.Row[:f.nKeys]
	snap := ev.Row[f.nKeys:]
	f.keyBuf = keyRow.AppendKey(f.keyBuf[:0])
	g, ok := f.groups[string(f.keyBuf)]
	if !ok {
		if f.idx.complete(keyRow, f.wm) {
			// Partials drop late data before it reaches the exchange; keep
			// the defensive parity anyway.
			f.lateDrop++
			return nil
		}
		g = f.newGroup(keyRow)
		gk := string(f.keyBuf)
		f.groups[gk] = g
		g.seq = f.idx.add(gk, g, g.keyRow)
	}
	g.snaps[part] = snap
	return f.reemit(g, ev.Ptime)
}

// liveRows sums the per-partition live-row counts.
func (g *finalGroup) liveRows() int64 {
	var n int64
	for _, s := range g.snaps {
		if s != nil {
			n += s[0].Int()
		}
	}
	return n
}

// combine merges one call's per-partition states into its output value.
func (f *finalAggOp) combine(ci int, g *finalGroup) (types.Value, error) {
	call := f.aggs[ci]
	off := f.offs[ci]
	switch call.Kind {
	case plan.AggCountStar, plan.AggCount:
		var n int64
		for _, s := range g.snaps {
			if s != nil {
				n += s[off].Int()
			}
		}
		return types.NewInt(n), nil

	case plan.AggSum:
		var sumI int64
		var sumF float64
		var n int64
		exact := true
		for _, s := range g.snaps {
			if s == nil {
				continue
			}
			n += s[off+1].Int()
			switch s[off].Kind() {
			case types.KindInt64:
				sumI += s[off].Int()
			case types.KindInterval:
				sumI += int64(s[off].Interval())
			default:
				exact = false
				sumF += s[off].AsFloat()
			}
		}
		if n == 0 {
			return types.Null(), nil
		}
		switch {
		case call.K == types.KindInterval:
			return types.NewInterval(types.Duration(sumI)), nil
		case exact:
			return types.NewInt(sumI), nil
		default:
			return types.NewFloat(sumF + float64(sumI)), nil
		}

	case plan.AggAvg:
		var sumI int64
		var sumF float64
		var n int64
		exact := true
		for _, s := range g.snaps {
			if s == nil {
				continue
			}
			n += s[off+1].Int()
			if s[off].Kind() == types.KindInt64 {
				sumI += s[off].Int()
			} else {
				exact = false
				sumF += s[off].AsFloat()
			}
		}
		if n == 0 {
			return types.Null(), nil
		}
		if exact {
			return types.NewFloat(float64(sumI) / float64(n)), nil
		}
		return types.NewFloat((sumF + float64(sumI)) / float64(n)), nil

	case plan.AggMin, plan.AggMax:
		best := types.Null()
		for _, s := range g.snaps {
			if s == nil || s[off+1].Int() == 0 {
				continue
			}
			v := s[off]
			if best.IsNull() {
				best = v
				continue
			}
			c, err := v.Compare(best)
			if err != nil {
				return types.Null(), err
			}
			if (call.Kind == plan.AggMin && c < 0) || (call.Kind == plan.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil

	default:
		return types.Null(), fmt.Errorf("exec: aggregate %s has no partial/final form", call.Describe())
	}
}

// reemit mirrors aggOp.reemit over the merged state: retract the previous
// output row, emit the new one, suppress when unchanged.
func (f *finalAggOp) reemit(g *finalGroup, p types.Time) error {
	var row types.Row
	if g.liveRows() > 0 || f.global {
		row = make(types.Row, 0, len(g.keyRow)+len(f.aggs))
		row = append(row, g.keyRow...)
		for ci := range f.aggs {
			v, err := f.combine(ci, g)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
	}
	if g.outRow != nil && row != nil && g.outRow.Equal(row) {
		return nil
	}
	if g.outRow != nil {
		if err := f.out.Push(tvr.DeleteEvent(p, g.outRow)); err != nil {
			return err
		}
		g.outRow = nil
	}
	if row == nil {
		return nil
	}
	g.outRow = row
	return f.out.Push(tvr.InsertEvent(p, row))
}

func (f *finalAggOp) onWatermark(ev tvr.Event) error {
	if ev.Wm <= f.wm {
		return nil
	}
	f.wm = ev.Wm
	for _, c := range f.idx.advance(f.wm) {
		delete(f.groups, c.key)
	}
	return f.out.Push(ev)
}

func (f *finalAggOp) Finish() error { return f.out.Finish() }

func (f *finalAggOp) stats(s *Stats) {
	for _, g := range f.groups {
		s.StateRows += int(g.liveRows())
	}
	s.StateGroups += len(f.groups)
	s.LateDropped += f.lateDrop
	s.FreedGroups += f.idx.freed
}
