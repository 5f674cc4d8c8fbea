package exec

import (
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// sink receives changelog events and an end-of-input signal.
type sink interface {
	// Push delivers one event. Events arrive in non-decreasing ptime
	// order.
	Push(ev tvr.Event) error
	// Finish signals that no more events will arrive on this input.
	Finish() error
}

// batchSink is the optional batch fast path on the sink contract.
// PushBatch(evs) must be observably identical to pushing each event in
// order — batching is a dispatch-shape optimization, never a semantic one —
// and implementations may not retain or mutate the slice (callers reuse the
// backing array, and drivers hand down sub-slices of the source logs). The
// events obey the same non-decreasing ptime contract as Push, and a batch
// may mix data and control (watermark/heartbeat) events. Operators that
// don't implement batchSink are fed through the pushBatch adapter, which
// preserves the one-event semantics exactly.
type batchSink interface {
	PushBatch(evs []tvr.Event) error
}

// pushBatch delivers evs to s, using the batch fast path when the sink opts
// in and falling back to per-event Push otherwise. Single-event batches take
// the Push path directly so size-1 dispatch is byte-for-byte the per-event
// path.
func pushBatch(s sink, evs []tvr.Event) error {
	switch len(evs) {
	case 0:
		return nil
	case 1:
		return s.Push(evs[0])
	}
	if bs, ok := s.(batchSink); ok {
		return bs.PushBatch(evs)
	}
	for i := range evs {
		if err := s.Push(evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// opener is implemented by operators that emit output before any input
// (constant relations, global aggregates).
type opener interface {
	Open() error
}

// statser is implemented by operators that report execution statistics.
type statser interface {
	stats(*Stats)
}

// Execution-path labels reported in Stats.Path.
const (
	// PathSerial is the ordinary serial pipeline.
	PathSerial = "serial"
	// PathParallel is the key-partitioned pipeline with single-stage
	// operators.
	PathParallel = "parallel"
	// PathParallelTwoStage is the key-partitioned pipeline with at least
	// one partial/final aggregate pair.
	PathParallelTwoStage = "parallel-two-stage"
	// PathSerialSmallInput is the serial pipeline chosen by the
	// partitioned driver's small-input cost gate.
	PathSerialSmallInput = "serial-small-input"
)

// Stats aggregates observability counters across a pipeline, the raw
// material for the paper's state-size and update-volume experiments.
type Stats struct {
	// StateRows is the number of rows currently held in operator state
	// (join sides, aggregation groups, emit buffers).
	StateRows int
	// StateGroups is the number of live aggregation/emit groups.
	StateGroups int
	// LateDropped counts input rows dropped because their group was
	// already complete when they arrived (Extension 2 late-data policy).
	LateDropped int
	// FreedGroups counts groups whose state was released by watermark
	// completion (the Section 5 state-cleanup lesson).
	FreedGroups int
	// OutputEvents counts data events emitted by the pipeline root.
	OutputEvents int
	// Partitions is the number of parallel operator chains the query ran
	// on (1 for the serial pipeline).
	Partitions int
	// TwoStage reports whether the plan used partial/final aggregation.
	TwoStage bool
	// Path identifies which execution path ran (see the Path* constants),
	// including the partitioned driver's small-input serial fallback.
	Path string
	// Dispatches counts scan deliveries (batched or single) made by the
	// driver, and DispatchedEvents the events they carried; their ratio is
	// the average batch size reaching the operators. Neither is part of
	// checkpointed state — a restored pipeline starts the counters afresh.
	Dispatches       int64
	DispatchedEvents int64
	// EventsPerDispatch is DispatchedEvents/Dispatches (0 when idle): the
	// observable measure of how much batching the ingest granularity allows.
	EventsPerDispatch float64
}

// Pipeline is a compiled, runnable query.
//
// A pipeline has two interchangeable driving styles. Run replays recorded
// changelogs in one shot. The incremental lifecycle — Start, any number of
// Feed/Advance calls, then Close — keeps the pipeline resident so a standing
// query can be fed new events as they arrive; Drain hands back the output
// deltas materialized so far. Any Feed-batch split of the same delivery
// sequence produces byte-identical output to a one-shot Run.
type Pipeline struct {
	collector *Collector
	scans     map[string][]*scanOp // lower-cased source name -> scan operators
	scanOrder []string             // deterministic source ordering
	scanBind  []scanBinding        // scan operator -> plan node, in build order
	allOps    []sink               // in build (parent-before-child) order
	opened    bool
	closed    bool

	dispatches       int64 // scan deliveries (batched or single)
	dispatchedEvents int64 // events carried by those deliveries

	// cutHook, when set, intercepts plan nodes at the partitioned
	// pipeline's exchange frontier: the tail builder uses it to stop the
	// serial segment at each cut and record the sink the cut subtree's
	// merged stream must feed. Returning handled=true skips building the
	// node's subtree.
	cutHook func(n plan.Node, out sink) (handled bool, err error)
}

// scanBinding ties a compiled scan operator back to its plan node, so the
// partitioned driver can look up per-scan routing keys.
type scanBinding struct {
	node *plan.Scan
	op   *scanOp
}

// Source provides the recorded changelog of one named relation.
type Source struct {
	Name string
	Log  tvr.Changelog
}

// buildTail constructs the materialization tail shared by the serial and
// partitioned pipelines: the collector, wrapped by the query's EMIT
// materialization-control operators. It returns the operators (collector
// first) and the topmost sink the plan root should feed. Keeping this in one
// place is what guarantees the two execution paths materialize identically.
func buildTail(pq *plan.PlannedQuery) (collector *Collector, ops []sink, top sink) {
	collector = newCollector(pq)
	ops = append(ops, collector)
	top = collector
	switch {
	case pq.Emit.AfterWatermark && pq.Emit.Delay == nil:
		e := newEmitAfterWatermark(pq.Root.Schema(), top)
		ops = append(ops, e)
		top = e
	case pq.Emit.Delay != nil:
		e := newEmitAfterDelay(pq.Root.Schema(), *pq.Emit.Delay, pq.Emit.AfterWatermark, top)
		ops = append(ops, e)
		top = e
	}
	return collector, ops, top
}

// Compile builds a pipeline for the planned query.
func Compile(pq *plan.PlannedQuery) (*Pipeline, error) {
	p := &Pipeline{scans: make(map[string][]*scanOp)}
	collector, tailOps, top := buildTail(pq)
	p.collector = collector
	p.allOps = append(p.allOps, tailOps...)
	if err := p.build(pq.Root, top); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Pipeline) addScan(name string, s *scanOp) {
	key := lowered(name)
	if _, ok := p.scans[key]; !ok {
		p.scanOrder = append(p.scanOrder, key)
	}
	p.scans[key] = append(p.scans[key], s)
}

func lowered(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// build wires the operator for n so that its output flows into out.
func (p *Pipeline) build(n plan.Node, out sink) error {
	if p.cutHook != nil {
		if handled, err := p.cutHook(n, out); handled || err != nil {
			return err
		}
	}
	switch x := n.(type) {
	case *plan.Scan:
		s := &scanOp{out: out, asOf: x.AsOf, bounded: !x.Stream}
		p.allOps = append(p.allOps, s)
		p.addScan(x.Name, s)
		p.scanBind = append(p.scanBind, scanBinding{node: x, op: s})
		return nil
	case *plan.Values:
		v := &valuesOp{out: out, rows: x.Rows}
		p.allOps = append(p.allOps, v)
		return nil
	case *plan.Filter:
		f := &filterOp{out: out, cond: x.Cond}
		p.allOps = append(p.allOps, f)
		return p.build(x.Input, f)
	case *plan.Project:
		pr := &projectOp{out: out, exprs: x.Exprs}
		p.allOps = append(p.allOps, pr)
		return p.build(x.Input, pr)
	case *plan.WindowTVF:
		w := newWindowOp(x, out)
		p.allOps = append(p.allOps, w)
		return p.build(x.Input, w)
	case *plan.Aggregate:
		a := newAggOp(x, out)
		p.allOps = append(p.allOps, a)
		return p.build(x.Input, a)
	case *plan.Join:
		j := newJoinOp(x, out)
		p.allOps = append(p.allOps, j)
		if err := p.build(x.Left, j.leftPort()); err != nil {
			return err
		}
		return p.build(x.Right, j.rightPort())
	case *plan.Distinct:
		d := &distinctOp{out: out, counts: make(map[string]*rowCount)}
		p.allOps = append(p.allOps, d)
		return p.build(x.Input, d)
	case *plan.Union:
		u := newUnionOp(len(x.Inputs), out)
		p.allOps = append(p.allOps, u)
		for i, in := range x.Inputs {
			if err := p.build(in, u.port(i)); err != nil {
				return err
			}
		}
		return nil
	case *plan.SetOp:
		s := newSetOp(x, out)
		p.allOps = append(p.allOps, s)
		if err := p.build(x.Left, s.leftPort()); err != nil {
			return err
		}
		return p.build(x.Right, s.rightPort())
	default:
		return fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// Run feeds the sources through the pipeline. Events with ptime greater than
// upTo are excluded (pass types.MaxTime to consume everything); a heartbeat
// at upTo fires any pending processing-time timers, and Finish flushes the
// rest. The Result holds the whole output log and the table rendering folded
// from it. Run may be called once per compiled pipeline and cannot be mixed
// with the incremental lifecycle.
func (p *Pipeline) Run(sources []Source, upTo types.Time) (*Result, error) {
	if p.opened {
		return nil, fmt.Errorf("exec: pipeline already ran")
	}
	if err := p.Start(); err != nil {
		return nil, err
	}
	if err := p.feed(sources, upTo, true); err != nil {
		return nil, err
	}
	// Advance the processing-time clock to the query horizon so that
	// delay timers due by now fire, then finish every scan.
	if upTo != types.MaxTime {
		if err := p.Advance(upTo); err != nil {
			return nil, err
		}
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	return p.collector.result()
}

// Start opens every operator, making the pipeline ready for incremental
// Feed/Advance calls. Open runs parent-first so that open-time emissions
// (constant relations, empty global aggregates) flow into already-open
// sinks.
func (p *Pipeline) Start() error {
	if p.opened {
		return fmt.Errorf("exec: pipeline already started")
	}
	p.opened = true
	for _, op := range p.allOps {
		if o, ok := op.(opener); ok {
			if err := o.Open(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Feed merges the batch's per-source events into one ptime-ordered delivery
// sequence (ties broken by scan registration order, exactly as Run orders
// them) and pushes it through the scans. Sources with no new events may be
// omitted; operator state persists across calls, so feeding a changelog in
// any number of order-respecting batches is byte-identical to feeding it in
// one.
func (p *Pipeline) Feed(batch []Source) error {
	return p.feed(batch, types.MaxTime, false)
}

func (p *Pipeline) feed(batch []Source, upTo types.Time, requireAll bool) error {
	if !p.opened || p.closed {
		return fmt.Errorf("exec: pipeline not accepting input")
	}
	return forEachMergedRuns(batch, p.scanOrder, upTo, requireAll, func(name string, evs []tvr.Event) error {
		scans := p.scans[name]
		if len(scans) == 1 {
			p.dispatches++
			p.dispatchedEvents += int64(len(evs))
			return pushBatch(scans[0], evs)
		}
		// Several scan operators read this source (a self-join): the serial
		// order interleaves the scans per event, so a whole-run dispatch to
		// one scan at a time would reorder deliveries. Fall back to the
		// per-event path.
		for _, ev := range evs {
			for _, s := range scans {
				p.dispatches++
				p.dispatchedEvents++
				if err := s.Push(ev); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// Advance moves the processing-time clock to pt by pushing a heartbeat into
// every scan, firing any processing-time timers (EMIT AFTER DELAY) due by
// then. The relation contents are unchanged.
func (p *Pipeline) Advance(pt types.Time) error {
	if !p.opened || p.closed {
		return fmt.Errorf("exec: pipeline not accepting input")
	}
	hb := tvr.HeartbeatEvent(pt)
	for _, name := range p.scanOrder {
		for _, s := range p.scans[name] {
			p.dispatches++
			p.dispatchedEvents++
			if err := s.Push(hb); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close signals end-of-input on every scan (completing bounded relations and
// flushing pending timers). What that materializes is left for Drain.
func (p *Pipeline) Close() error {
	if !p.opened {
		return fmt.Errorf("exec: pipeline not started")
	}
	if p.closed {
		return fmt.Errorf("exec: pipeline already closed")
	}
	p.closed = true
	for _, name := range p.scanOrder {
		for _, s := range p.scans[name] {
			if err := s.Finish(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Drain hands over the output changelog events materialized since the
// previous Drain (or since Start), in emission order. The caller owns the
// returned slice; the pipeline keeps nothing of it.
func (p *Pipeline) Drain() tvr.Changelog { return p.collector.drain() }

// OutputWatermark reports the output relation's current watermark: the
// completeness assertion that has propagated through the plan to the root.
func (p *Pipeline) OutputWatermark() types.Time { return p.collector.watermark() }

// Stats walks the pipeline collecting operator statistics.
func (p *Pipeline) Stats() Stats {
	var st Stats
	for _, op := range p.allOps {
		if s, ok := op.(statser); ok {
			s.stats(&st)
		}
	}
	st.Partitions = 1
	st.Path = PathSerial
	st.Dispatches = p.dispatches
	st.DispatchedEvents = p.dispatchedEvents
	if st.Dispatches > 0 {
		st.EventsPerDispatch = float64(st.DispatchedEvents) / float64(st.Dispatches)
	}
	return st
}

// DispatchStats returns the dispatch counters without walking operator state.
func (p *Pipeline) DispatchStats() (dispatches, events int64) {
	return p.dispatches, p.dispatchedEvents
}

// Result is a one-shot Run's materialized output.
type Result struct {
	// Schema describes the output columns.
	Schema *types.Schema
	// Log is the output changelog (data events only, ptime-ordered).
	Log tvr.Changelog
	// Snapshot is the final output relation (the table rendering), folded
	// from Log.
	Snapshot *tvr.Relation
	// EmitKeyIdxs are the event-time grouping columns used for changelog
	// version numbering.
	EmitKeyIdxs []int
	// OrderBy / Limit presentation settings from the plan.
	OrderBy []plan.SortKey
	Limit   *int64
}

// TableRows renders the snapshot with presentation order applied: ORDER BY
// keys first, then insertion order for stability.
func (r *Result) TableRows() []types.Row {
	rows := r.Snapshot.Rows()
	if len(r.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range r.OrderBy {
				a, b := rows[i][k.Col], rows[j][k.Col]
				if a.IsNull() && b.IsNull() {
					continue
				}
				if a.IsNull() {
					return !k.Desc
				}
				if b.IsNull() {
					return k.Desc
				}
				c, err := a.Compare(b)
				if err != nil || c == 0 {
					continue
				}
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if r.Limit != nil && int64(len(rows)) > *r.Limit {
		rows = rows[:*r.Limit]
	}
	return rows
}

// StreamRows renders the output changelog with undo/ptime/ver metadata
// (Extension 4).
func (r *Result) StreamRows() []tvr.StreamRow {
	return tvr.RenderStream(r.Log, r.EmitKeyIdxs)
}

// Collector is the terminal sink. It holds only the output not yet drained,
// plus the output watermark and counters: drain hands that buffer over, and a
// one-shot Run builds its Result from it.
type Collector struct {
	schema  *types.Schema
	out     tvr.Changelog // output not yet drained
	keys    []int
	orderBy []plan.SortKey
	limit   *int64
	outN    int
	wm      types.Time
}

func newCollector(pq *plan.PlannedQuery) *Collector {
	return &Collector{
		schema:  pq.Root.Schema(),
		keys:    pq.EmitKeyIdxs,
		orderBy: pq.OrderBy,
		limit:   pq.Limit,
		wm:      types.MinTime,
	}
}

// Push implements sink.
func (c *Collector) Push(ev tvr.Event) error {
	switch ev.Kind {
	case tvr.Insert, tvr.Delete:
		c.out = append(c.out, ev)
		c.outN++
	case tvr.Watermark:
		if ev.Wm > c.wm {
			c.wm = ev.Wm
		}
	}
	return nil
}

// PushBatch implements batchSink: the terminal sink applies the whole batch
// in one call, saving a dispatch per event.
func (c *Collector) PushBatch(evs []tvr.Event) error {
	for i := range evs {
		if err := c.Push(evs[i]); err != nil {
			return err
		}
	}
	return nil
}

// drain hands the undrained output to the caller and starts a fresh buffer.
func (c *Collector) drain() tvr.Changelog {
	out := c.out
	c.out = nil
	return out
}

func (c *Collector) watermark() types.Time { return c.wm }

// Finish implements sink.
func (c *Collector) Finish() error { return nil }

func (c *Collector) stats(s *Stats) { s.OutputEvents += c.outN }

// result builds a one-shot Run's Result. Run never drains, so the collector
// holds the whole output log; the table rendering is folded from it here,
// once, and a retraction of a row the log never inserted fails the run.
// Emitted rows are immutable, so the fold shares them with the log.
func (c *Collector) result() (*Result, error) {
	log := c.drain()
	snap := tvr.NewRelation()
	for _, ev := range log {
		if err := snap.ApplyOwned(ev); err != nil {
			return nil, err
		}
	}
	return &Result{
		Schema:      c.schema,
		Log:         log,
		Snapshot:    snap,
		EmitKeyIdxs: c.keys,
		OrderBy:     c.orderBy,
		Limit:       c.limit,
	}, nil
}
