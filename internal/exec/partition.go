package exec

import (
	"errors"
	"fmt"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/watermark"
)

// This file implements key-partitioned parallel execution. The plan's
// partitioning metadata (plan.DerivePartitioning) proves that rows which can
// ever meet in partition-resident operator state share a routing key, so the
// driver can run N copies of each partitionable subtree — one per partition —
// and fan data events out by key hash while broadcasting watermarks and
// heartbeats.
//
// Determinism is preserved exactly, not approximately: every delivery (one
// event pushed into one scan operator) gets a global sequence number in the
// same order the serial driver would perform it, per-partition outputs are
// tagged with the sequence number of the delivery that caused them, and the
// merge stage reassembles the output stream in (sequence, emission) order.
// Because a data delivery reaches exactly one partition and the per-key
// operator state it touches lives wholly in that partition, the merged
// stream is byte-identical to the serial pipeline's output.
//
// The serial tail consumes the merged stream through one *exchange port* per
// partitioned subtree (plan.Partitioning.CutNodes): for a fully partitionable
// plan that is a single port feeding the EMIT materialization operators and
// the collector; for a cut plan each port feeds the serial operator that
// consumes the subtree (a final aggregate merging two-stage partials, a join
// input, a DISTINCT). Per-partition watermarks min-merge per port (via
// watermark.MinMerger) before entering the tail, and heartbeats deduplicate
// per port, mirroring what the operator at that plan position would observe
// serially.
//
// Scheduling is pipelined rather than round-barriered: each partition owns a
// long-lived worker goroutine with double-buffered inbox/outbox, so the
// workers process round N while the driver's merge stage consumes round N-1.
// Rounds are merged strictly in dispatch order and sequence numbers grow
// monotonically across rounds, so overlapping changes wall-clock behavior
// only — the (seq, emission) merge order, and therefore the output bytes,
// are identical to the barriered schedule.

// ErrNotPartitionable reports that a plan cannot run key-partitioned and the
// caller should fall back to the serial pipeline. Compile errors wrap it so
// callers can errors.Is-test.
var ErrNotPartitionable = errors.New("exec: plan is not partitionable")

// defaultRoundSize is the number of deliveries dispatched per parallel round.
// Batching amortizes channel hand-offs and merge overhead, and large rounds
// are what make the partitioned path cache-friendly (one partition's chain
// stays hot for thousands of events before the driver touches the tail);
// 8192 measured best on the NEXMark aggregation mix. One round's deliveries
// are routed, processed in parallel, and merged in order while the next
// round is being processed.
const defaultRoundSize = 8192

// SmallInputMinPerPartition is the default small-input cost-gate threshold:
// below this many source events per partition the fan-out/merge overhead
// cannot amortize and Run executes serially. Deliberately a fraction of the
// round size — an input worth a couple of rounds already parallelizes.
// Callers that know the input size up front (core's one-shot query paths)
// should gate *before* CompilePartitioned so tiny queries do not even pay
// for building the partition chains.
const SmallInputMinPerPartition = 2048

// routeBlock is the round-robin granularity for stateless (keyless) scans:
// deliveries are spread over partitions in blocks of consecutive sequence
// numbers instead of one by one. Routing stays a pure function of the
// persisted sequence counter — and the merge stage reassembles outputs by
// sequence — so the output bytes are unchanged; what block routing buys is
// long consecutive-seq runs inside each partition's inbox, which the chain
// drain coalesces into single batch dispatches. Per-seq round-robin would cap
// every stateless run at one event. 256 keeps a default 8192-delivery round
// spread across 32 blocks, so partitions stay balanced well past the
// partition counts this engine targets.
const routeBlock = 256

// PartitionedPipeline is a compiled query that executes as N key-partitioned
// operator chains plus a serial merge/materialization tail.
type PartitionedPipeline struct {
	parts  int
	round  int
	scheme *plan.Partitioning
	pq     *plan.PlannedQuery // kept for the small-input serial fallback

	chains []*partChain

	// Delivery-plan shared by all chains (identical build order).
	scanOrder []string // lower-cased source names, serial cursor order
	scanIdxOf map[string][]int
	routes    [][]int // per scan index: columns to hash, nil = round-robin
	hashBuf   []byte  // reusable routing-key encoding buffer

	// Serial tail: the final-aggregate/EMIT/collector operators plus one
	// entry sink per exchange port (plan cut), in cut order.
	tailOps     []sink
	portSinks   []sink
	portPartial []partialReceiver // non-nil where the port is a final aggregate
	collector   *Collector
	twoStage    bool

	// Per-port watermark/heartbeat merge state.
	ports []portState

	// Pipelined round scheduling: one persistent worker per partition,
	// double-buffered inboxes/outboxes recycled between rounds. inflight
	// holds the participants of the round dispatched but not yet merged.
	workers    []*partWorker
	inflight   []int
	spareInbox [][]delivery
	spareBuf   [][]taggedEvent
	stopped    bool
	failed     error

	// minPerPart is the small-input cost gate: Run falls back to the
	// serial pipeline when the sources carry fewer than parts*minPerPart
	// events, since tiny inputs cannot amortize the fan-out/merge
	// overhead. 0 disables the gate; the incremental Feed lifecycle never
	// gates (input size is unknown up front).
	minPerPart int
	fallback   *Pipeline // set when the gate engaged

	// Incremental-lifecycle driver state: the global delivery sequence
	// counter and the number of deliveries enqueued since the last flush.
	// Both persist across Feed calls so that routing (round-robin uses the
	// sequence number) and merge order are independent of batch splits.
	seq     int
	pending int
	opened  bool
	closed  bool
}

// portState is the per-exchange-port control-event merge state.
type portState struct {
	wmMerge *watermark.MinMerger
	wmPtime types.Time // max ptime over the copies of the pending watermark
	wmSeq   int
	hasHB   bool
	lastHB  types.Time
}

// partialReceiver is implemented by the final aggregate: partial-update
// events carry their originating partition so the final stage can replace
// that partition's contribution.
type partialReceiver interface {
	PushPartial(part int, ev tvr.Event) error
}

// partChain is one partition's copy of the partitioned operator chains.
type partChain struct {
	pipe    *Pipeline
	tag     *tagSink
	scanOps []*scanOp // flattened in delivery order (scanOrder x per-name)
	inbox   []delivery

	evBuf []tvr.Event // coalesced-run scratch, reused across rounds
	// Dispatch counters, owned by the chain's worker goroutine; the driver
	// reads them from Stats only while the pipeline is quiescent.
	dispatches       int64
	dispatchedEvents int64
}

// partWorker is a partition's scheduling endpoint. in has capacity 1 so the
// driver can deposit the next round while the worker still processes the
// current one; out has capacity 2 (the at-most-two dispatched-but-unmerged
// rounds) so a worker never blocks sending results, even on error paths.
type partWorker struct {
	in  chan workerRound
	out chan workerRound
}

// workerRound is one round's work unit: the routed deliveries in, the tagged
// outputs back, both slices recycled round-over-round.
type workerRound struct {
	inbox []delivery
	buf   []taggedEvent
	err   error
}

// work processes rounds until the inbox channel closes. All chain operator
// state is touched only between an in-receive and the matching out-send, so
// the channel hand-offs order memory accesses between worker and driver.
// A panicking operator is caught here and surfaced as the round's error —
// the driver fails the query through the normal error path instead of the
// panic unwinding the process.
func (c *partChain) work(w *partWorker) {
	for r := range w.in {
		r.err = c.drainRound(r.inbox, &r.buf)
		w.out <- r
	}
}

func (c *partChain) drainRound(inbox []delivery, buf *[]taggedEvent) (err error) {
	defer func() {
		if perr := CapturePanic(recover()); perr != nil {
			err = perr
		}
		*buf = c.tag.buf
	}()
	c.tag.buf = *buf
	return c.drain(inbox)
}

// delivery is one unit of driver work: push one event into one scan operator
// (or finish it). seq is the global order the serial driver would use.
type delivery struct {
	seq    int
	scan   int
	ev     tvr.Event
	finish bool
}

// taggedEvent is one output emission labelled with the delivery that caused
// it and the exchange port it surfaced at; buffer order within a partition is
// the emission order.
type taggedEvent struct {
	seq  int
	port int
	ev   tvr.Event
}

// tagSink is the per-chain output buffer shared by the chain's port sinks.
type tagSink struct {
	seq int
	buf []taggedEvent
}

// portTagSink terminates one partitioned subtree of a chain, recording
// outputs with cause and port tags. A delivery enters exactly one scan and
// flows up exactly one subtree, so buffer order stays (seq, emission) order
// even with several ports sharing the buffer.
type portTagSink struct {
	t    *tagSink
	port int
}

func (s *portTagSink) Push(ev tvr.Event) error {
	s.t.buf = append(s.t.buf, taggedEvent{seq: s.t.seq, port: s.port, ev: ev})
	return nil
}

// PushBatch implements batchSink: the whole batch lands in the tag buffer in
// one call. Every event carries the current delivery seq — for a coalesced
// run that is the run's first seq, which preserves the (seq, emission) merge
// order because the run's sequence numbers are consecutive and therefore
// absent from every other partition.
func (s *portTagSink) PushBatch(evs []tvr.Event) error {
	for i := range evs {
		s.t.buf = append(s.t.buf, taggedEvent{seq: s.t.seq, port: s.port, ev: evs[i]})
	}
	return nil
}

func (s *portTagSink) Finish() error { return nil }

// CompilePartitioned builds an N-way partitioned pipeline for the planned
// query. It returns an error wrapping ErrNotPartitionable when the plan has
// no valid hash partitioning (the caller should use Compile instead).
func CompilePartitioned(pq *plan.PlannedQuery, parts int) (*PartitionedPipeline, error) {
	if parts < 2 {
		return nil, fmt.Errorf("%w: need at least 2 partitions, got %d", ErrNotPartitionable, parts)
	}
	scheme, err := plan.DerivePartitioning(pq)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotPartitionable, err)
	}
	cutNodes := scheme.CutNodes()
	cutIdx := make(map[plan.Node]int, len(cutNodes))
	for i, n := range cutNodes {
		cutIdx[n] = i
	}
	pp := &PartitionedPipeline{
		parts:      parts,
		round:      defaultRoundSize,
		scheme:     scheme,
		pq:         pq,
		twoStage:   scheme.IsTwoStage(),
		minPerPart: SmallInputMinPerPartition,
		portSinks:  make([]sink, len(cutNodes)),
	}

	// The materialization tail is built by the same helper Compile uses, so
	// both paths materialize identically by construction. The serial
	// segment above the exchange cuts (if any) is built by the ordinary
	// operator builder with a hook that stops at each cut and records the
	// sink its merged stream must feed — creating the final aggregate for
	// two-stage cuts.
	collector, tailOps, top := buildTail(pq)
	pp.collector = collector
	pp.tailOps = tailOps
	tailPipe := &Pipeline{scans: make(map[string][]*scanOp)}
	tailPipe.cutHook = func(n plan.Node, out sink) (bool, error) {
		ci, ok := cutIdx[n]
		if !ok {
			return false, nil
		}
		if agg, isAgg := n.(*plan.Aggregate); isAgg && scheme.TwoStage[agg] {
			fa := newFinalAggOp(agg, parts, out)
			tailPipe.allOps = append(tailPipe.allOps, fa)
			pp.portSinks[ci] = fa
		} else {
			pp.portSinks[ci] = out
		}
		return true, nil
	}
	if err := tailPipe.build(pq.Root, top); err != nil {
		return nil, err
	}
	if len(tailPipe.scanOrder) > 0 {
		return nil, fmt.Errorf("exec: internal: scan above the exchange frontier")
	}
	pp.tailOps = append(pp.tailOps, tailPipe.allOps...)
	pp.portPartial = make([]partialReceiver, len(cutNodes))
	for i, s := range pp.portSinks {
		if pr, ok := s.(partialReceiver); ok {
			pp.portPartial[i] = pr
		}
	}
	pp.ports = make([]portState, len(cutNodes))
	for i := range pp.ports {
		pp.ports[i] = portState{wmMerge: watermark.NewMinMerger(parts), wmSeq: -1}
	}

	for i := 0; i < parts; i++ {
		tag := &tagSink{}
		pipe := &Pipeline{scans: make(map[string][]*scanOp)}
		for ci, cut := range cutNodes {
			top := &portTagSink{t: tag, port: ci}
			if agg, isAgg := cut.(*plan.Aggregate); isAgg && scheme.TwoStage[agg] {
				pa, err := newPartialAggOp(agg, top)
				if err != nil {
					return nil, err
				}
				pipe.allOps = append(pipe.allOps, pa)
				if err := pipe.build(agg.Input, pa); err != nil {
					return nil, err
				}
			} else if err := pipe.build(cut, top); err != nil {
				return nil, err
			}
		}
		chain := &partChain{pipe: pipe, tag: tag}
		for _, name := range pipe.scanOrder {
			chain.scanOps = append(chain.scanOps, pipe.scans[name]...)
		}
		pp.chains = append(pp.chains, chain)
	}

	// The delivery plan comes from partition 0; all chains are built from
	// the same plan tree in the same order, so indexes line up. Cut nodes
	// enumerate in plan DFS order, so the concatenated scan order equals
	// the serial pipeline's.
	ref := pp.chains[0]
	pp.scanOrder = ref.pipe.scanOrder
	pp.scanIdxOf = make(map[string][]int)
	idx := 0
	for _, name := range ref.pipe.scanOrder {
		for range ref.pipe.scans[name] {
			pp.scanIdxOf[name] = append(pp.scanIdxOf[name], idx)
			idx++
		}
	}
	for _, op := range ref.scanOps {
		var node *plan.Scan
		for _, b := range ref.pipe.scanBind {
			if b.op == op {
				node = b.node
				break
			}
		}
		if node == nil {
			return nil, fmt.Errorf("exec: internal: scan operator without plan binding")
		}
		pp.routes = append(pp.routes, scheme.ScanKeys[node])
	}
	return pp, nil
}

// SetSmallInputGate overrides the small-input cost gate: Run executes
// serially when the sources carry fewer than parts*minPerPart events. Pass 0
// to always run partitioned (used by equivalence tests and benchmarks that
// measure the parallel path at small scale).
func (pp *PartitionedPipeline) SetSmallInputGate(minPerPart int) {
	pp.minPerPart = minPerPart
}

// SmallInput is the single definition of the small-input cost-gate policy:
// it reports whether the sources carry too few events to amortize a
// parts-way fan-out under the given per-partition threshold (<= 0 disables).
// Both PartitionedPipeline.Run and core's pre-compile gate call this, so the
// threshold semantics cannot drift between the two layers.
func SmallInput(sources []Source, parts, minPerPart int) bool {
	if minPerPart <= 0 {
		return false
	}
	total := 0
	for _, s := range sources {
		total += len(s.Log)
	}
	return total < parts*minPerPart
}

// route picks the partition for a data event entering the given scan.
func (pp *PartitionedPipeline) route(d delivery) int {
	cols := pp.routes[d.scan]
	if cols == nil {
		// Stateless subtree: spread deliveries round-robin in blocks of
		// consecutive sequence numbers (see routeBlock).
		return (d.seq / routeBlock) % pp.parts
	}
	// Inline FNV-1a over the reusable key-encoding buffer: the routing
	// loop is serial and per-event, so avoid both the hasher allocation
	// and the per-delivery string materialization.
	pp.hashBuf = d.ev.Row.AppendKeyOf(pp.hashBuf[:0], cols)
	h := uint32(2166136261)
	for _, b := range pp.hashBuf {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(pp.parts))
}

// Run feeds the sources through the partitioned pipeline; the contract is
// identical to Pipeline.Run, including byte-identical output. Inputs too
// small to amortize the fan-out (see SetSmallInputGate) transparently run on
// the serial pipeline instead; Stats reports which path executed.
func (pp *PartitionedPipeline) Run(sources []Source, upTo types.Time) (*Result, error) {
	if pp.opened {
		return nil, fmt.Errorf("exec: pipeline already ran")
	}
	if SmallInput(sources, pp.parts, pp.minPerPart) {
		sp, err := Compile(pp.pq)
		if err != nil {
			return nil, err
		}
		pp.opened, pp.closed = true, true
		pp.fallback = sp
		return sp.Run(sources, upTo)
	}
	if err := pp.Start(); err != nil {
		return nil, err
	}
	if err := pp.feed(sources, upTo, true); err != nil {
		return nil, err
	}
	// Advance the processing-time clock to the query horizon, then finish
	// every scan — mirroring the serial driver's epilogue.
	if upTo != types.MaxTime {
		if err := pp.Advance(upTo); err != nil {
			return nil, err
		}
	}
	if err := pp.Close(); err != nil {
		return nil, err
	}
	return pp.collector.result()
}

// Start opens the tail and every partition chain's operators and launches the
// partition workers, making the pipeline ready for incremental Feed/Advance
// calls. Only tail operators may emit at open time (a global final aggregate's
// initial row); the partitioning analysis rejects chain-side open emissions
// (constant relations), which would otherwise duplicate per partition.
func (pp *PartitionedPipeline) Start() error {
	if pp.opened {
		return fmt.Errorf("exec: pipeline already started")
	}
	pp.opened = true
	for _, op := range pp.tailOps {
		if o, ok := op.(opener); ok {
			if err := o.Open(); err != nil {
				return err
			}
		}
	}
	for _, c := range pp.chains {
		for _, op := range c.pipe.allOps {
			if o, ok := op.(opener); ok {
				if err := o.Open(); err != nil {
					return err
				}
			}
		}
		if len(c.tag.buf) > 0 {
			return fmt.Errorf("exec: internal: partitioned chain emitted at open time")
		}
	}
	pp.launchWorkers()
	return nil
}

// launchWorkers starts the persistent per-partition worker goroutines. It is
// the half of Start shared with checkpoint restore, which must skip the
// operator Open pass (open-time emissions already happened before the
// checkpoint was taken).
func (pp *PartitionedPipeline) launchWorkers() {
	pp.workers = make([]*partWorker, pp.parts)
	pp.spareInbox = make([][]delivery, pp.parts)
	pp.spareBuf = make([][]taggedEvent, pp.parts)
	for p := range pp.workers {
		w := &partWorker{in: make(chan workerRound, 1), out: make(chan workerRound, 2)}
		pp.workers[p] = w
		go pp.chains[p].work(w)
	}
}

// Abandon releases the pipeline's worker goroutines without completing its
// input; operator state is left as-is and no further calls are accepted. It
// exists for the checkpoint workflow: a pipeline that has just been
// checkpointed can be discarded in favor of a restored copy (equivalence
// tests do exactly that) without leaking its workers.
func (pp *PartitionedPipeline) Abandon() {
	pp.closed = true
	pp.stopWorkers()
}

// stopWorkers ends the partition worker goroutines. Safe to call repeatedly;
// workers never block on result sends (out is sized for the maximum number of
// outstanding rounds), so closing their inboxes always terminates them.
func (pp *PartitionedPipeline) stopWorkers() {
	if pp.stopped || pp.workers == nil {
		return
	}
	pp.stopped = true
	for _, w := range pp.workers {
		close(w.in)
	}
}

// fail marks the pipeline unusable and shuts the workers down.
func (pp *PartitionedPipeline) fail(err error) error {
	if pp.failed == nil {
		pp.failed = err
	}
	pp.stopWorkers()
	return err
}

// enqueue routes one delivery: data events go to the partition owning their
// key, control events (watermarks, heartbeats, finishes) broadcast so every
// partition observes time progress and end-of-input.
func (pp *PartitionedPipeline) enqueue(d delivery) {
	if d.ev.IsData() && !d.finish {
		p := pp.route(d)
		pp.chains[p].inbox = append(pp.chains[p].inbox, d)
	} else {
		for _, c := range pp.chains {
			c.inbox = append(c.inbox, d)
		}
	}
	pp.pending++
}

// dispatch hands every non-empty inbox to its partition worker as one round,
// swapping in the recycled spare buffers, and returns the participating
// partitions in order.
func (pp *PartitionedPipeline) dispatch() []int {
	var participants []int
	for p, c := range pp.chains {
		if len(c.inbox) == 0 {
			continue
		}
		pp.workers[p].in <- workerRound{inbox: c.inbox, buf: pp.spareBuf[p][:0]}
		pp.spareBuf[p] = nil
		c.inbox = pp.spareInbox[p][:0]
		pp.spareInbox[p] = nil
		participants = append(participants, p)
	}
	return participants
}

// collectRound waits for the given round's workers, k-way merges their tagged
// buffers by (seq, partition) into the tail, and recycles the buffers.
// Buffers are already seq-ordered: workers process deliveries in seq order
// and tag outputs as they emit.
func (pp *PartitionedPipeline) collectRound(participants []int) error {
	if len(participants) == 0 {
		return nil
	}
	rounds := make([]workerRound, len(participants))
	var firstErr error
	for i, p := range participants {
		rounds[i] = <-pp.workers[p].out
		if rounds[i].err != nil && firstErr == nil {
			firstErr = rounds[i].err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	idx := make([]int, len(participants))
	for {
		best := -1
		for i := range participants {
			if idx[i] >= len(rounds[i].buf) {
				continue
			}
			if best < 0 || rounds[i].buf[idx[i]].seq < rounds[best].buf[idx[best]].seq {
				best = i
			}
		}
		if best < 0 {
			break
		}
		te := rounds[best].buf[idx[best]]
		idx[best]++
		if err := pp.emit(te, participants[best]); err != nil {
			return err
		}
	}
	for i, p := range participants {
		pp.spareInbox[p] = rounds[i].inbox[:0]
		pp.spareBuf[p] = rounds[i].buf[:0]
	}
	return nil
}

// flushRound dispatches the pending deliveries as a new round and merges the
// *previous* round's results — the double-buffered overlap: workers chew on
// round N while the driver merges round N-1.
func (pp *PartitionedPipeline) flushRound() error {
	pp.pending = 0
	cur := pp.dispatch()
	err := pp.collectRound(pp.inflight)
	pp.inflight = cur
	if err != nil {
		return pp.fail(err)
	}
	return nil
}

// sync dispatches any pending deliveries and merges every outstanding round,
// leaving the pipeline quiescent (the barrier Drain and Close rely on).
func (pp *PartitionedPipeline) sync() error {
	if err := pp.flushRound(); err != nil {
		return err
	}
	err := pp.collectRound(pp.inflight)
	pp.inflight = nil
	if err != nil {
		return pp.fail(err)
	}
	return nil
}

// Feed merges and routes a batch of new per-source events, overlapping
// parallel rounds with the merge stage as the batch fills them, and
// materializes the batch's output into the tail so Drain observes it. The
// global sequence counter persists across calls, so batch splits change
// neither routing nor merge order: any order-respecting split is
// byte-identical to a one-shot Run.
func (pp *PartitionedPipeline) Feed(batch []Source) error {
	return pp.feed(batch, types.MaxTime, false)
}

func (pp *PartitionedPipeline) feed(batch []Source, upTo types.Time, requireAll bool) error {
	if !pp.opened || pp.closed || pp.failed != nil {
		return fmt.Errorf("exec: pipeline not accepting input")
	}
	// Same k-way merge by ptime as the serial driver (ties broken by
	// source registration order), batched into overlapping rounds. Routing
	// needs per-event key hashing, so runs are unrolled here; the batch win
	// on this path comes from the chains coalescing consecutive-seq runs on
	// the partition side.
	err := forEachMergedRuns(batch, pp.scanOrder, upTo, requireAll, func(name string, evs []tvr.Event) error {
		scanIdx := pp.scanIdxOf[name]
		for _, ev := range evs {
			for _, si := range scanIdx {
				pp.enqueue(delivery{seq: pp.seq, scan: si, ev: ev})
				pp.seq++
			}
			if pp.pending >= pp.round {
				if err := pp.flushRound(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		if pp.failed == nil {
			pp.fail(err)
		}
		return err
	}
	return pp.sync()
}

// Advance moves the processing-time clock to pt by broadcasting a heartbeat
// to every partition and syncing the outstanding rounds.
func (pp *PartitionedPipeline) Advance(pt types.Time) error {
	if !pp.opened || pp.closed || pp.failed != nil {
		return fmt.Errorf("exec: pipeline not accepting input")
	}
	hb := tvr.HeartbeatEvent(pt)
	for _, name := range pp.scanOrder {
		for _, si := range pp.scanIdxOf[name] {
			pp.enqueue(delivery{seq: pp.seq, scan: si, ev: hb})
			pp.seq++
		}
	}
	return pp.sync()
}

// Close signals end-of-input on every scan in every partition, merges the
// final rounds through the serial tail, and finishes the exchange ports; what
// that materializes is left for Drain.
func (pp *PartitionedPipeline) Close() error {
	if !pp.opened {
		return fmt.Errorf("exec: pipeline not started")
	}
	if pp.closed {
		return fmt.Errorf("exec: pipeline already closed")
	}
	pp.closed = true
	if pp.failed != nil {
		return pp.failed
	}
	for _, name := range pp.scanOrder {
		for _, si := range pp.scanIdxOf[name] {
			pp.enqueue(delivery{seq: pp.seq, scan: si, finish: true})
			pp.seq++
		}
	}
	if err := pp.sync(); err != nil {
		return err
	}
	pp.stopWorkers()
	// Finish the tail ports. All merged events (including the finish-time
	// final watermarks) are already in; a port's Finish emits nothing until
	// the last input of a converging tail operator finishes, so port order
	// yields the serial finish cascade.
	for _, ps := range pp.portSinks {
		if err := ps.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// Drain hands over the output changelog events materialized since the
// previous Drain (or since Start), in emission order; the caller owns them.
func (pp *PartitionedPipeline) Drain() tvr.Changelog {
	if pp.fallback != nil {
		return pp.fallback.Drain()
	}
	return pp.collector.drain()
}

// OutputWatermark reports the output relation's current watermark.
func (pp *PartitionedPipeline) OutputWatermark() types.Time {
	if pp.fallback != nil {
		return pp.fallback.OutputWatermark()
	}
	return pp.collector.watermark()
}

// drain pushes a round's deliveries through the partition's chain. Maximal
// runs of consecutive-seq data deliveries into the same scan are coalesced
// into one batch dispatch tagged with the run's first seq: the run's sequence
// numbers are consecutive, so no other partition holds any seq inside the
// run and the (seq, emission) merge order is unchanged. Control and finish
// deliveries keep the per-event path (and their own seq tags — the watermark
// deduplication in emit depends on copies sharing the cause seq).
func (c *partChain) drain(inbox []delivery) error {
	for i := 0; i < len(inbox); {
		d := inbox[i]
		s := c.scanOps[d.scan]
		if d.finish {
			c.tag.seq = d.seq
			if err := s.Finish(); err != nil {
				return err
			}
			i++
			continue
		}
		if !d.ev.IsData() {
			c.tag.seq = d.seq
			c.dispatches++
			c.dispatchedEvents++
			if err := s.Push(d.ev); err != nil {
				return err
			}
			i++
			continue
		}
		j := i + 1
		for j < len(inbox) {
			n := inbox[j]
			if n.finish || !n.ev.IsData() || n.scan != d.scan || n.seq != inbox[j-1].seq+1 {
				break
			}
			j++
		}
		c.tag.seq = d.seq
		c.dispatches++
		c.dispatchedEvents += int64(j - i)
		if j == i+1 {
			if err := s.Push(d.ev); err != nil {
				return err
			}
		} else {
			c.evBuf = c.evBuf[:0]
			for k := i; k < j; k++ {
				c.evBuf = append(c.evBuf, inbox[k].ev)
			}
			if err := s.PushBatch(c.evBuf); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// emit forwards one merged output into its exchange port of the serial tail.
// Data events pass through directly (their cause delivery ran in exactly one
// partition, so merge order equals serial order); partial-update events carry
// their originating partition into the final aggregate. Control events arrive
// once per partition and are deduplicated per port: watermarks min-merge
// across partitions, heartbeats forward once per processing time.
func (pp *PartitionedPipeline) emit(te taggedEvent, part int) error {
	switch te.ev.Kind {
	case tvr.Watermark:
		// Copies of one logical watermark share the cause seq but may
		// carry different ptimes (a bounded scan's final watermark is
		// stamped with the partition's last seen ptime); the serial
		// equivalent is the max over partitions.
		ps := &pp.ports[te.port]
		if te.seq != ps.wmSeq {
			ps.wmSeq = te.seq
			ps.wmPtime = te.ev.Ptime
		} else if te.ev.Ptime > ps.wmPtime {
			ps.wmPtime = te.ev.Ptime
		}
		if wm, adv := ps.wmMerge.Advance(part, te.ev.Wm); adv {
			return pp.portSinks[te.port].Push(tvr.WatermarkEvent(ps.wmPtime, wm))
		}
		return nil
	case tvr.Heartbeat:
		ps := &pp.ports[te.port]
		if !ps.hasHB || te.ev.Ptime > ps.lastHB {
			ps.hasHB = true
			ps.lastHB = te.ev.Ptime
			return pp.portSinks[te.port].Push(te.ev)
		}
		return nil
	default:
		if pr := pp.portPartial[te.port]; pr != nil {
			return pr.PushPartial(part, te.ev)
		}
		return pp.portSinks[te.port].Push(te.ev)
	}
}

// Stats sums operator statistics across every partition chain and the tail.
func (pp *PartitionedPipeline) Stats() Stats {
	if pp.fallback != nil {
		st := pp.fallback.Stats()
		st.Path = PathSerialSmallInput
		return st
	}
	var st Stats
	for _, c := range pp.chains {
		for _, op := range c.pipe.allOps {
			if s, ok := op.(statser); ok {
				s.stats(&st)
			}
		}
		st.Dispatches += c.dispatches
		st.DispatchedEvents += c.dispatchedEvents
	}
	if st.Dispatches > 0 {
		st.EventsPerDispatch = float64(st.DispatchedEvents) / float64(st.Dispatches)
	}
	for _, op := range pp.tailOps {
		if s, ok := op.(statser); ok {
			s.stats(&st)
		}
	}
	st.Partitions = pp.parts
	st.TwoStage = pp.twoStage
	st.Path = PathParallel
	if pp.twoStage {
		st.Path = PathParallelTwoStage
	}
	return st
}

// DispatchStats returns the dispatch counters without walking operator
// state. Safe whenever the workers are quiescent (Feed/Advance fully sync
// before returning), which is when the session layer calls it.
func (pp *PartitionedPipeline) DispatchStats() (dispatches, events int64) {
	if pp.fallback != nil {
		return pp.fallback.DispatchStats()
	}
	for _, c := range pp.chains {
		dispatches += c.dispatches
		events += c.dispatchedEvents
	}
	return dispatches, events
}

// Partitioning exposes the routing scheme (for EXPLAIN-style output).
func (pp *PartitionedPipeline) Partitioning() *plan.Partitioning { return pp.scheme }
