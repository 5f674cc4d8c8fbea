package exec

import (
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// sink is the one operator contract (see the package documentation):
// PushBatch delivers a run of the input changelog, processed in order, and
// Finish signals that no more events will arrive on this input.
type sink interface {
	PushBatch(evs []tvr.Event) error
	Finish() error
}

// flush hands the pending outputs downstream in one dispatch and empties the
// buffer, keeping its capacity. An empty buffer dispatches nothing.
func flush(out sink, pend *[]tvr.Event) error {
	evs := *pend
	if len(evs) == 0 {
		return nil
	}
	*pend = evs[:0]
	return out.PushBatch(evs)
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
	values    []*valuesOp          // constant-relation roots
	allOps    []any                // in build (parent-before-child) order
	opened    bool
	closed    bool

	dispatches       int64 // scan deliveries (batched or single)
	dispatchedEvents int64 // events carried by those deliveries
}

// Source provides the recorded changelog of one named relation.
type Source struct {
	Name string
	Log  tvr.Changelog
}

// Compile builds a pipeline for the planned query: the collector, wrapped by
// the query's EMIT materialization-control operator (if any), fed by the
// operator tree of the plan.
func Compile(pq *plan.PlannedQuery) (*Pipeline, error) {
	p := &Pipeline{scans: make(map[string][]*scanOp)}
	p.collector = newCollector(pq)
	p.allOps = append(p.allOps, p.collector)
	var top sink = p.collector
	switch {
	case pq.Emit.AfterWatermark && pq.Emit.Delay == nil:
		top = newEmitAfterWatermark(pq.Root.Schema(), top)
		p.allOps = append(p.allOps, top)
	case pq.Emit.Delay != nil:
		top = newEmitAfterDelay(pq.Root.Schema(), *pq.Emit.Delay, pq.Emit.AfterWatermark, top)
		p.allOps = append(p.allOps, top)
	}
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
	switch x := n.(type) {
	case *plan.Scan:
		s := &scanOp{out: out, asOf: x.AsOf, bounded: !x.Stream}
		p.allOps = append(p.allOps, s)
		p.addScan(x.Name, s)
		return nil
	case *plan.Values:
		v := &valuesOp{out: out, rows: x.Rows}
		p.allOps = append(p.allOps, v)
		p.values = append(p.values, v)
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
		if err := p.build(x.Left, j.port(0)); err != nil {
			return err
		}
		return p.build(x.Right, j.port(1))
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
		if err := p.build(x.Left, s.port(0)); err != nil {
			return err
		}
		return p.build(x.Right, s.port(1))
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
			return scans[0].PushBatch(evs)
		}
		// Several scan operators read this source (a self-join). Delivery
		// interleaves the scans per event, and that order is semantic: handing
		// one scan the whole run first would stamp join pairs with the
		// earlier side's ptime. So each scan gets one event at a time.
		for i := range evs {
			for _, s := range scans {
				p.dispatches++
				p.dispatchedEvents++
				if err := s.PushBatch(evs[i : i+1]); err != nil {
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
	hb := []tvr.Event{tvr.HeartbeatEvent(pt)}
	for _, name := range p.scanOrder {
		for _, s := range p.scans[name] {
			p.dispatches++
			p.dispatchedEvents++
			if err := s.PushBatch(hb); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close signals end-of-input on every scan (completing bounded relations and
// flushing pending timers), then on every constant relation, so a
// multi-input operator fed by one finishes too. What that materializes is
// left for Drain.
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
	for _, v := range p.values {
		if err := v.Finish(); err != nil {
			return err
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

// PushBatch implements sink: data events join the undrained output, and
// watermarks advance the output watermark.
func (c *Collector) PushBatch(evs []tvr.Event) error {
	for i := range evs {
		switch evs[i].Kind {
		case tvr.Insert, tvr.Delete:
			c.out = append(c.out, evs[i])
			c.outN++
		case tvr.Watermark:
			c.wm = max(c.wm, evs[i].Wm)
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
