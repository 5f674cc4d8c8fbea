// Package live implements standing queries: compiled pipelines that stay
// resident and are fed incrementally as new changes arrive, pushing EMIT
// deltas to subscribers instead of recompiling and rescanning history per
// request.
//
// The paper's central object is the time-varying relation, with the table
// and stream renderings as equal citizens. The engine's one-shot query paths
// (core.QueryTable / core.QueryStream) replay a recorded changelog through a
// freshly compiled pipeline, unless a resident pipeline can answer (see the
// read contract below); package live supplies the third mode of
// consumption: a Session wraps an exec.Driver started once, feeds it every
// subsequent ingested change through the same deterministic merge the replay
// path uses, and delivers the incremental output — stream-rendered deltas or
// consolidated table diffs — to its subscribers. The driver lifecycle
// guarantees that incremental feeding is byte-identical to replay when the
// batches reach the pipeline in the replay's merge order: by ptime, ties
// broken by scan order, across every relation the plan scans (see
// exec.Driver). When commits do, a standing subscription observes exactly
// the delta sequence a post-hoc EMIT STREAM query over the final changelog
// would produce. Each relation's own commits are ptime-ordered, but two
// relations can be committed out of that order (a Bid at ptime 100, then an
// Auction at ptime 50); a session scanning both then sees the commit order,
// and its output may differ from the replay's.
//
// # Shared sessions and late attach
//
// One time-varying relation is one pipeline, however many consumers watch it
// and in whichever rendering: a Session is the resident pipeline, and any
// number of subscriber cursors attach to it, each with its own bounded delta
// channel, slow-consumer policy, rendering mode and stats (Attach).
// Manager.Subscribe shares sessions by plan key, which the engine derives
// from the optimized plan: its EXPLAIN rendering, the output schema, EMIT
// AFTER WATERMARK, the AFTER DELAY duration and the emit-key columns. Stream
// and table readers of a query, and its spellings (whitespace, keyword case,
// table aliases), therefore share one pipeline; EMIT STREAM, ORDER BY and
// LIMIT are presentation and stay out of the key. An empty key makes a
// dedicated session that retains no output (core's Exclusive option).
//
// The mode belongs to the cursor (CursorOpts.Mode). The session retains one
// output changelog, from which both renderings derive: every delivery
// advances the stream renderer, whose version counters must see every row,
// and is consolidated into a table diff only while a table cursor is
// attached; each cursor takes its own (Delta.as). A cursor attaching after
// the pipeline has produced output first receives a snapshot hand-off: the
// stream rendering re-rendered from the retained log, so it starts at the
// current version numbers, or the log consolidated into one diff. Either is
// byte-identical to what a dedicated subscription opened at the same instant
// would deliver. Attach runs under the manager's ordering lock, so no commit
// slips between the snapshot and live routing. The session tears down when
// its last cursor departs; that cursor's Close completes the pipeline and
// receives the close-time output in its own mode.
//
// The retained log is the cost of one pipeline per relation: a session only
// table readers use keeps its changelog too, not one entry per distinct row.
// Config.MaxRetainedRows caps it in changelog rows; past the cap the log is
// released and later attaches fail with ErrRetainedOverflow, existing
// cursors unaffected. The subscription that creates the session fixes it.
//
// # Checkpoint and restore
//
// Manager.CheckpointAll writes every shareable open session (driver state,
// stream-renderer counters, retained log) under the ordering lock, after the
// engine's catalog, so both describe one commit point. Exclusive sessions are
// skipped: their one subscriber dies with the process. Sessions are written
// with neither key nor mode. RestoreAll re-plans each one's SQL against the
// restored catalog (RestoreQuery), re-derives its key, and registers it with
// zero cursors, so a reconnecting reader of either mode attaches and gets
// the hand-off. It also reads the layout written while sessions had a mode
// and were keyed by SQL text. A legacy stream session loads as above. A
// legacy table session kept only distinct rows, no log a stream reader could
// be handed, so its state is decoded and dropped, and the session is rebuilt
// from the recorded history and caught up to the last heartbeat, as
// Subscribe builds one. A session whose re-derived key is already taken is
// decoded and dropped; its readers reconnect to the survivor. The snapshot
// goldens in internal/core/testdata pin both layouts.
//
// # Commit and fan-out
//
// The engine funnels every catalog change through Manager.PublishSpan and
// every heartbeat through Manager.AdvanceWithSpan. Each runs the caller's
// commit (validate, write-ahead log, apply to the catalog) and then the
// fan-out under one ordering lock, Manager.mu, so:
//
//   - a failed commit is neither fanned out nor sequenced, and the log only
//     holds changes that committed;
//   - every session observes changes in commit order, which is also log
//     order;
//   - each session gets a published batch as one delivery (one delta per
//     attached cursor), in registration-id order across sessions;
//   - a session registered late replays the recorded history and is caught
//     up to the last committed heartbeat under the same lock, so its delay
//     timers fire as an early subscriber's did.
//
// With Options.Shards > 0 the commit also takes a global sequence number and
// enqueues one task per affected shard inside the lock; each session is
// pinned to one shard (hash of its registration id) and each shard's single
// worker applies its FIFO queue, so per-session delivery order equals the
// serial fan-out's. A full shard queue blocks the publisher. A session that
// refuses a delivery (canceled, every cursor dropped, or failed) leaves the
// routing table; a panicking operator fails only its own session.
//
// Asynchronous apply is never observable: Manager.Quiesce drains every
// shard before a one-shot query or a checkpoint, a plan-hit attach drains
// its session's shard before snapshotting, and a graceful cursor Close
// drains its shard so acknowledged commits fold into the final delta.
//
// # One-shot reads from a resident pipeline
//
// A session's retained output changelog holds every one-shot read of its
// plan. A table read at processing time T is the snapshot of the output TVR
// at T, and a stream read up to T is its changelog up to T (the source
// paper's section 3): both are the prefix of the retained output with
// ptime <= T, found by binary search, then folded with the read's own
// ORDER BY and LIMIT (table) or rendered with versions counted from 1
// (stream), through the same exec.FoldResult a one-shot Run uses.
//
// The cut is exact. The session is fed in (ptime, scan rank) merge order,
// and every operator stamps an output event with the ptime of the input
// that caused it (the operator contract in internal/exec). So the retained
// ptimes never decrease, the output up to T is what the inputs up to T
// caused, and those are exactly the inputs a replay up to T feeds. What a
// replay adds after them, a heartbeat at T and Close, emits nothing for a
// close-inert plan.
//
// The engine serves a read this way (Manager.ResidentOutput) instead of
// replaying the recorded history when all of these hold; otherwise it
// replays, and engine_query_replay_total{reason} counts why:
//
//   - the plan is close-inert: it scans only streams, none AS OF, and has
//     no EMIT AFTER DELAY (the engine checks this; a bounded or AS OF scan
//     completes, and a delay timer fires, only at Close or on a heartbeat).
//     Reason not_inert;
//   - a session is resident under the read's plan key, whatever its
//     readers' modes; exclusive sessions never answer. Reason no_session;
//   - the session is open. Reason closed;
//   - its driver has only ever been fed in merge order
//     (exec.Driver.FedInMergeOrder). The session mirrors that bit into an
//     atomic after each feed, before the feed's output is retained, so a
//     read never sees output of an out-of-order feed. The bit is not
//     checkpointed: a restored session counts as out of order. Reason
//     out_of_order;
//   - the session still retains its output, so neither DropRetainedOutput
//     nor a MaxRetainedRows overflow released it. Reason overflow.
//
// The commit point is the engine's Quiesce, the same barrier a replaying
// read passes: every commit acknowledged before the read began has been
// applied, and its output retained, before the read looks. The read takes
// only the session's mu, long enough to copy the slice header of the
// retained log (capped, so later appends stay invisible), and cuts and
// folds it outside any lock. It never takes Manager.mu or ingestMu, so a
// delivery parked on a full Block-policy cursor, whose output is retained
// before it parks, cannot stall it. TestResidentReadMatchesReplay and
// FuzzResidentRead hold every served read to a replay.
//
// # Lock order
//
// Manager.mu → engine catalog lock → Session.ingestMu → Session.mu; nothing
// takes them in reverse. ingestMu serializes driver access; mu guards the
// cursor list, channels and retained output, and is never held while a
// Block-policy delivery parks on a full cursor, so Attach, Stats and a
// peer's Cancel or Close stay responsive during backpressure. Shard workers
// take only the session locks, never Manager.mu, so a publisher blocked on a
// full shard queue cannot deadlock against its own workers; a worker that
// must unregister a dead session does so from a fresh goroutine, and
// teardown takes Manager.mu with neither session lock held.
package live
