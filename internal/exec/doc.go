// Package exec implements the push-based incremental execution engine.
//
// A compiled pipeline is a DAG of operators mirroring the logical plan. The
// driver merges the source changelogs into a single processing-time-ordered
// event timeline and hands it to the scans in batches; every operator
// transforms input changelog events into the exact delta of its output
// relation, so at any processing time the materialized output equals the
// logical plan applied to the inputs' instantaneous relations (the pointwise
// semantics of Section 3.1 of the paper). Watermark events flow through the
// same channels and drive group completion, state cleanup, and the EMIT
// materialization operators.
//
// One driver, Pipeline, runs every one-shot query and every standing query.
//
// # The standing-query lifecycle
//
// A standing query's pipeline is compiled once, stays resident, and is fed
// incrementally as changes arrive; no request recompiles it or rescans the
// history. Pipeline implements Driver (the interface lets internal/live's
// tests substitute a fake):
//
//	Compile        one-time: plan -> operator chain
//	Start()        open the operators, parent-first
//	Feed(batch)*   k-way ptime merge of the batch (ties by scan registration
//	               order, as in Run), pushed through the scans
//	Advance(pt)*   a heartbeat: fires the EMIT AFTER DELAY timers due by pt
//	Close()        finish the scans: bounded relations complete, timers flush
//	Output()       the log each of them stages its output in, which the
//	               caller publishes and retains (Drain hands it over instead)
//
// Run is the same lifecycle in one call (Start, a feed of every source up to
// its horizon, Advance to the horizon, Close), so one-shot queries and
// replays run the code standing queries run. The invariant, property-tested
// by TestFeedSplitEquivalence (lifecycle_test.go): any split of the source
// changelogs into Feed batches along the ptime axis gives output
// byte-identical to one Run over the same logs (see Driver for the exact
// precondition, which FedInMergeOrder reports).
//
// An operator has nothing to do for Feed or Advance. It sees the same
// PushBatch and Finish calls, carrying the same events in the same order, as
// under Run, and its state persists between Feeds because the pipeline stays
// alive. An operator with processing-time timers (emitAfterDelayOp) also
// fires on the heartbeats Advance injects. A new operator inherits
// standing-query support for free.
//
// # The operator contract
//
// Every operator input is a sink with one way in: PushBatch(evs) delivers a
// run of the input changelog, and Finish says no more events will arrive on
// that input. A batch is nothing but a run of the changelog (the source
// paper defines an operator by the changelog it turns into its output
// changelog), so an operator must:
//
//   - process the events in order, as if they arrived one at a time: a
//     batch never reorders, splits emissions differently or changes
//     watermark semantics, so any re-chunking of a log into PushBatch calls
//     gives byte-identical output;
//   - let control events take effect in position: watermarks and heartbeats
//     arrive inside batches, between data events;
//   - neither retain nor mutate evs: callers reuse the backing array, and
//     drivers hand down sub-slices of the source logs;
//   - never mutate a row it receives or emits, and keep a row it receives
//     (as state, or in an output event) as is, without copying it. Rows are
//     immutable once emitted (see "Rows" below);
//   - treat an empty batch, PushBatch(nil) included, as a no-op;
//   - stamp every output event with the ptime of the input event whose
//     processing emitted it. EMIT AFTER DELAY is the one exception: a timer
//     fire carries its deadline, which is no later than that ptime. So a
//     pipeline fed in merge order emits non-decreasing ptimes, and its
//     output up to ptime T is exactly what the inputs up to T caused: the
//     engine answers a read at T from a resident pipeline by cutting its
//     retained output there (internal/live, "One-shot reads").
//     TestOutputPtimesFollowInput pins the rule over the rechunk shapes.
//
// Events obey non-decreasing ptime. The common shape (aggOp is the model)
// processes the batch in order, appends its outputs to a reused pend buffer
// and hands that downstream once through flush, which never dispatches an
// empty batch and leaves pend empty. pend is never checkpointed: it is empty
// whenever a call returns (an error is terminal; the pipeline that returned
// it is not fed again). Operators with several inputs (join, UNION ALL,
// INTERSECT/EXCEPT) take events through port sinks that share one
// mergingSink: watermarks min-merge and heartbeats deduplicate in position,
// data goes to the operator's apply, and every port flushes the shared pend.
//
// TestPushBatchRechunkEquivalence pins the contract for every operator
// family: size-1, whole-log, mixed and random chunkings must each reproduce
// testdata/rechunk_*.golden, the per-event output recorded while operators
// still had a separate per-event entry point.
//
// Dispatch shape. The driver's k-way ptime merge hands each maximal run of
// same-scan events to that scan as one batch (a single-source Feed is one
// batch). A source read by several scans (a self-join) is the exception:
// the merge interleaves those scans per event, and that order is semantic —
// handing one scan the whole run first would stamp join pairs with the
// earlier side's ptime — so each scan gets one-event sub-slices. Stats
// counts Dispatches and DispatchedEvents, whose ratio is the batching the
// ingest granularity allows.
//
// Costs the batch shape buys: scan, filter and project forward one scratch
// batch (project, Tumble and Hop carve their output rows from one block
// allocation); the keyed aggregate probes its group store once per run of
// same-key events (a run cache keyed on the previous event's encoded key)
// and builds a suppressed reemit's candidate row in reused scratch, so its
// steady state costs 0 allocs/op (TestKeyedHotPathAllocFree). Opening a
// group is cheap too, because in a windowed query nearly every event opens
// one: the group, its key, its completion-index entry and the rows EMIT
// AFTER WATERMARK buffers for it take slots that closed groups freed (see
// "Operator state"), its accumulators are the slot's, reset in place, and a
// MIN/MAX holds its first distinct value inline and builds its keyed
// multiset only for a second. TestWindowedAggAllocs pins the benchmark's
// windowed_agg query, where every event opens and closes a group: it reads
// about 1 allocation per event (the group's output row) and may not pass 2.
// make batch-guard runs the re-chunking property, both pins and
// BenchmarkBatchPush with -benchmem (including a Q4-shaped join ->
// aggregate case).
//
// Constant relations are complete: a VALUES operator emits its rows at Open
// followed by a final watermark, and Close finishes it with the scans.
// DISTINCT and INTERSECT/EXCEPT forget a row whose multiplicities return to
// 0, so their state tracks the live rows.
//
// # Adding an operator
//
// A new operator implements sink (and Open, if it emits before any input);
// a stateful one also implements SaveState/LoadState (see "Checkpoint and
// restore" below), keeps any keyed state in a tvr.Store and, if that state
// is keyed by event-time columns, registers its groups with a
// completionIndex (see "Operator state"). Pipeline.build wires it to
// its plan node, and a shape in rechunkShapes covers it in
// TestPushBatchRechunkEquivalence and TestOutputPtimesFollowInput.
// Nothing else changes.
//
// # Operator state
//
// Every operator keeps its keyed state in a tvr.Store (contract in the tvr
// package comment, "Stores"): aggOp, emitAfterWatermarkOp and
// emitAfterDelayOp their groups, emitAfterWatermarkOp the rows of all its
// groups in a second store, joinOp each side's buckets, distinctOp and
// setOp their rows, the MIN/MAX and DISTINCT accumulators their multisets,
// and the session window its timestamps, each with its multiplicity and
// rows, in a store that never removes one. What exec adds to it:
//
//   - A group is a slot. Window groups are short-lived, and a closed
//     group's slot is the next group's. What a slot outlives its group with
//     is reset in place: aggOp keeps len(aggs) accumulators per slot and a
//     new group resets them rather than allocate its own. Anything that
//     names a group (the completion heap, the aggregate's run cache, a
//     delay timer) holds its slot, and a holder that may outlive the group
//     checks it is still current (a timer fires only while it is its
//     group's armed timer).
//   - The completion heap and the delay timers are one type, dueHeap
//     (completion.go): (slot, sequence, time) entries held by value, so
//     neither costs the garbage collector a scan.
//   - An EMIT AFTER WATERMARK group's rows are linked in their (re)entry
//     order, the order tvr.Relation keeps, and are saved as a tvr.Relation
//     section, so its checkpoint bytes do not depend on the store.
//
// # Checkpoint and restore
//
// A standing query's answer must not depend on whether the serving process
// restarted mid-stream. A pipeline compiled from the same plan is
// re-hydrated from a checkpoint to exactly the point it was taken, and its
// later output is byte-identical to the uninterrupted run's. The stream
// encoding is internal/checkpoint's.
//
// A stateful operator implements
//
//	SaveState(*checkpoint.Encoder)
//	LoadState(*checkpoint.Decoder) error
//
// and a stateless one does not. SaveState writes every field that
// influences future emissions:
//
//   - accumulator values, per-group last-emitted rows (the
//     retract/emit/suppress seam), watermarks, late and freed counters and
//     timer queues;
//   - any iteration order its containers keep. Orders are part of the
//     byte-identical guarantee: the session-window operator keeps even
//     zero-count timestamps, because their place in its order decides the
//     retract/re-emit cascade order;
//   - every tvr.Store through the one keyed-section codec, tvr.SaveStore
//     and tvr.LoadStore: first-seen order where the order is part of the
//     state (groups, the session window's timestamps), key order where
//     there is none, so the same state always produces the same bytes. An
//     operator writes its value codec and rebuilds its own indexes (the
//     completion index, a group's row links). A key derivable from a stored
//     row or value (AppendKey, AppendKeyOf) is re-derived at load, not
//     stored, and a snapshot that lists one key twice is refused
//     (tvr.ErrDuplicateKey). A join bucket's rows and an EMIT AFTER
//     WATERMARK group's rows are written in their own order inside their
//     entry.
//
// Restore never calls Open: open-time emissions (constant relations, a
// global aggregate's initial row) happened before the checkpoint and already
// live in downstream state. Every operator has an isolation round-trip test
// in checkpoint_internal_test.go; add one for a new operator.
//
// SaveDriver and LoadDriver write and read a whole pipeline, embedded in
// the engine snapshot by internal/live (the goldens in testdata are
// standalone streams the tests write around them). The pipeline writes its
// operators in build order under the tag "serial". A stream tagged
// "partitioned", written while a key-partitioned executor existed, is
// refused with an error naming its removal
// (testdata/partitioned_two_stage.golden). Checkpoints are taken only at
// quiescent points, between Feed and Advance calls. The collector saves
// its output counters, watermark and the output staged but not yet taken
// (see "Output" below), so the Drains before and after a restore
// concatenate to the uninterrupted sequence. TestCheckpointRestoreEquivalence checkpoints,
// discards and restores a pipeline at every random Feed-split boundary and
// requires the drained output, and the stream and table renderings derived
// from it, to equal a one-shot Run's.
//
// # Watermark completion
//
// A watermark lets an operator finish a group, so cost and memory track the
// open groups, not the stream's history (the paper's Extensions 2 and 5).
// completionIndex (completion.go) is how aggOp, emitAfterWatermarkOp and
// emitAfterDelayOp do that:
//
//   - It owns a min-heap of the operator's open groups by completion time
//     max(key_i + WmOffset_i), first-seen sequence as tie-break, plus the
//     sequence counter and the closed-group count. The heap is a dueHeap:
//     its entries (slot, sequence, completion time) are held by value in
//     one slice, so registering a group costs no allocation beyond the
//     slice's amortized growth. The open groups are
//     exactly the live slots of the operator's store. A group with a NULL
//     or non-timestamp event key, and every group of an operator with no
//     event-time keys (Q4's aggregates, AFTER DELAY without AND AFTER
//     WATERMARK), gets a sequence number and is never held by the index.
//   - State keyed by event-time columns registers with the index (add) when
//     the group is created. An advancing watermark calls advance(wm), which
//     pops exactly the groups whose completion time has passed and returns
//     them in first-seen order (materialization order is part of the
//     byte-identical contract); the operator finishes each one and removes
//     it from its store. No operator scans closed groups or keeps a
//     tombstone: a row whose group is absent is late iff complete(keyRow,
//     wm). aggOp invalidates its run cache when the cached group is
//     evicted; emitAfterDelayOp's timer heap may still name a closed
//     group's slot, which a newer group may hold by then, so a timer fires
//     only while it is its slot's group's armed timer.
//   - So a watermark costs O(groups closing · log open), and groups,
//     checkpoints and RSS hold open groups only. stats reads StateGroups
//     and FreedGroups in O(1) and sums StateRows over open groups.
//   - Checkpoint layout is unchanged from before eviction: each group record
//     carries a closed flag, always written false; groups are written in
//     first-seen order; the heap is never serialized (LoadState re-adds each
//     group). Snapshots written before eviction hold closed groups as
//     tombstones (and stale AFTER DELAY timers), which LoadState reads past
//     and discards (testdata/*_pre_eviction.golden).
//   - completion_ref_test.go keeps the walk-every-group operators as
//     references for TestWatermarkCompletionMatchesWalk;
//     TestCompletionIndexTouchesOnlyClosingGroups and
//     BenchmarkWatermarkAdvance (closed=1k and closed=100k must read alike)
//     pin the cost. All run in make batch-guard.
//
// joinOp.expire still walks every bucket of both sides per watermark:
// O(live buckets), since expired rows are dropped, and no workload shows it.
//
// # Output: who holds it, who renders it
//
// A pipeline's output is held once, by whoever asked for it. The Collector
// at the root of every pipeline stages each output event in its log, a
// tvr.Log, past the log's published end, as the event reaches it: one copy,
// into the log's tail chunk, and no buffer that regrows. It also keeps the
// output watermark and counters. Who takes the output publishes it:
//
//   - A standing query (internal/live) takes the log itself
//     (Driver.Output). The operators stage on the committing goroutine; the
//     session publishes what they staged as one delivery under its own
//     lock, renders and retains it in place, and trims the log by its own
//     policy. Readers of the log never see a staged event, so a feed needs
//     no lock of the session's. Close stages what it materializes like any
//     feed.
//   - Drain publishes the staged events and hands them over, and trims the
//     log: the caller owns what it got, and the log keeps no event, only its
//     tail chunk for the events to come. TestStandingCollectorRetainsNothing
//     pins it.
//   - Run takes its Result from the whole log it staged and folds the table
//     rendering (Result.Snapshot) from it once, failing on a retraction of a
//     row the log never inserted. The stream rendering (Result.StreamRows) is
//     derived from the log on demand. A standing pipeline builds no table
//     rendering as it runs. A one-shot read the engine answers from a
//     resident pipeline is a cut of the output that pipeline's session
//     retained (internal/live), and a table read presents its rows through
//     Result.TableRows' PresentRows.
//
// A source changelog reaches Feed or Run as a Source: a plain slice (a
// commit's batch), or a range captured from a relation's tvr.Log (the
// recorded history a one-shot read or a registration replays). The merge
// walks a range chunk by chunk and never flattens it, so replaying a history
// copies none of it (core's TestReplayCopiesNoHistory).
//
// # Rows
//
// Emitted rows are immutable: the collector, a Result, a drain caller and
// every downstream operator may all share them without copying. So an
// operator may keep a row it receives: emitAfterWatermarkOp holds its input
// rows as its groups' samples and as the entries of its rows store, with no
// copy. No operator, driver or reader mutates a row once it is emitted.
//
// A row carved from a per-batch block (projectOp, and windowOp's Tumble and
// Hop rows) shares that block's backing array, so a retained row keeps the
// whole block, every row of its batch, alive while it is held. An
// aggregate copies what it keeps from its input, and an EMIT AFTER
// WATERMARK group holds its rows only until the watermark closes its
// window, so each holds a block briefly. State held for as long as its rows
// live does not rely on that: joinOp, the set operators (DISTINCT,
// INTERSECT, EXCEPT), session windows and emitAfterDelayOp still copy the
// rows they hold.
//
// A checkpoint of the collector carries the staged events no one has taken,
// so the concatenation of Drains before and after a restore equals the
// uninterrupted sequence. Its relation slot is always written empty;
// snapshots taken before the collector stopped keeping a relation load, and
// the relation they carry is discarded.
package exec
