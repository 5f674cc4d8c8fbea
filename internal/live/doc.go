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
// path uses, and retains the incremental output, which its subscribers read
// as stream-rendered deltas or consolidated table diffs. The driver lifecycle
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
// number of subscriber cursors attach to it, each with its own rendering
// mode, position and stats (Attach).
// Manager.Subscribe shares sessions by plan key, which the engine derives
// from the optimized plan: its EXPLAIN rendering, the output schema, EMIT
// AFTER WATERMARK, the AFTER DELAY duration and the emit-key columns. Stream
// and table readers of a query, and its spellings (whitespace, keyword case,
// table aliases), therefore share one pipeline; EMIT STREAM, ORDER BY and
// LIMIT are presentation and stay out of the key. Every session is keyed and
// retains its output; there is no other kind.
//
// The retained output is the relation's changelog (the stream rendering of
// the source paper's Extension 4) cut into deliveries: each commit's output
// rows, the stream version of each row, and the output watermark. The
// commit renders the versions once, as it appends, so every reader of the
// log sees the same ones. A cursor is a position in that output, in its
// cursor's mode (CursorOpts.Mode): its reader goroutine sends everything from
// the position on, one delta per delivery — the rows at their versions, or
// consolidate of them for a table cursor, computed by the reader — at the
// pace its consumer receives them. A cursor attaches at the end of the
// retained output but starts at its beginning, so when the pipeline has
// already produced output its first read is the hand-off: everything before
// its attach point as one delta, the rows at their versions or their
// consolidated diff, with the session's watermark at attach. That is
// byte-identical to what a fresh pipeline, replaying the recorded history at
// the same instant, would deliver, and no rendering is redone for it. Attach
// takes its position under the session's mu, which every append holds, so
// no delivery falls between the hand-off and the live deltas. The session
// tears down when its last cursor departs; that cursor's Close completes the
// pipeline and receives, after what it had not yet read, the close-time
// output in its own mode.
//
// The retained output is the cost of one pipeline per relation: a session only
// table readers use keeps its changelog too, not one entry per distinct row. An
// uncapped session keeps all of it. Config.MaxRetainedRows caps it in changelog
// rows; the subscription that creates the session fixes it. Past the cap the
// session stops serving late attach and resident reads, and keeps only the
// output some cursor has not yet read; its existing cursors are unaffected. A
// session past its cap is then treated like a closed one: the next Subscribe
// under its key builds a successor through the ordinary create path, under the
// new subscriber's own options (history replay, clock catch-up, then its
// cursor). The successor takes the plan key, so later attaches and resident
// reads find it. The predecessor keeps serving the cursors it already has and
// tears down with the last one; its teardown leaves the successor's key alone.
// A subscriber sees ErrRetainedOverflow only when its own cap cannot hold the
// output of the recorded history, and then no session is left behind.
//
// # Checkpoint and restore
//
// Manager.CheckpointAll writes every open session that holds its plan key
// (driver state, stream-renderer counters, retained output rows; a session past
// its cap writes none) under the ordering lock, after the engine's catalog, so
// both describe one commit point. A predecessor superseded by a successor is
// skipped: its cursors die with the process, and a reconnect attaches to the
// restored successor. Sessions are written with neither key nor mode, and
// without delivery boundaries or stream versions: restore derives the versions
// again, and the restored output is one hand-off for whoever attaches. The
// session record keeps a retired flag slot, always written false and ignored on
// restore, so the layout is unchanged. RestoreAll re-plans each one's SQL
// against the restored catalog (RestoreQuery), re-derives its key, and
// registers it with zero cursors, so a reconnecting reader of either mode
// attaches and gets the hand-off. It also reads the layout written while
// sessions had a mode and were keyed by SQL text. A legacy stream session loads
// as above. A legacy table session kept only distinct rows, no log a stream
// reader could be handed, so its state is decoded and dropped, and the session
// is rebuilt from the recorded history and caught up to the last heartbeat, as
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
//   - each session gets a published batch as one delivery (one delta owed
//     to each attached cursor), in registration-id order across sessions;
//   - a session registered late replays the recorded history and is caught
//     up to the last committed heartbeat under the same lock, so its delay
//     timers fire as an early subscriber's did.
//
// Fan-out feeds the driver, appends the output to the session's retained output
// as one delivery and wakes the session's idle readers; it never waits on one.
// A stream cursor whose reader is idle and whose consumer already waits on the
// channel is handed its delta by the commit itself, in a send that cannot
// block, so a consumer that keeps up pays no extra wake-up. A subscriber that
// stops reading therefore stalls no commit, no peer, no resident read and no
// checkpoint: its unread deliveries wait in the retained output, and when it
// reads again it receives exactly what a reading peer received. DeltasOut
// counts a delivery as it is appended, so it is final once the producer is
// idle.
//
// With Options.Shards > 0 the commit also takes a global sequence number and
// enqueues one task per affected shard inside the lock; each session is
// pinned to one shard (hash of its registration id) and each shard's single
// worker applies its FIFO queue, so per-session delivery order equals the
// serial fan-out's. A full shard queue blocks the publisher. A session that
// refuses a delivery (closed or failed) leaves the routing table; a
// panicking operator fails only its own session, whose readers still send
// what was appended before it, then end with its error.
//
// Asynchronous apply is never observable: Manager.Quiesce drains every
// shard before a one-shot query or a checkpoint, a plan-hit attach drains
// its session's shard before taking its attach point, and a graceful cursor
// Close drains its shard so acknowledged commits fold into the final delta.
//
// # One-shot reads from a resident pipeline
//
// A session's retained output changelog holds every one-shot read of its
// plan. A table read at processing time T is the snapshot of the output TVR
// at T, and a stream read up to T is its changelog up to T (the source
// paper's section 3): both derive from the prefix of the retained output
// with ptime <= T, found by binary search. A stream read renders that prefix
// with versions counted from 1, through the same exec.FoldResult a one-shot
// Run uses.
//
// A table read takes the snapshot from the session's fold: the table
// rendering of the first n rows of the retained output, kept in a
// tvr.Relation, which forgets a row at multiplicity zero, so the fold is as
// large as the current table, not as the history. A read whose prefix
// holds at least n rows extends the fold by the rows in between and copies
// its rows out under the fold's own mutex; a read at an earlier instant
// folds its own prefix afresh and leaves the fold alone. Either way the rows
// come out in the iteration order a Run's fold of the same prefix has, and
// each read applies its own ORDER BY and LIMIT to its copy
// (exec.PresentRows), so readers of one plan that present it differently
// share the fold. Only table reads touch it: no commit, delivery or stream
// read extends it, and it goes when the retained output does (overflow) and
// at close.
//
// The cut is exact. The session is fed in (ptime, scan rank) merge order,
// and every operator stamps an output event with the ptime of the input
// that caused it (the operator contract in internal/exec). So the retained
// ptimes never decrease, the output up to T is what the inputs up to T
// caused, and those are exactly the inputs a replay up to T feeds. What a
// replay adds after them, a heartbeat at T and Close, emits nothing for a
// close-inert plan.
//
// The engine serves a read this way (Manager.ResidentOutput,
// Manager.ResidentTable) instead of replaying the recorded history when all
// of these hold; otherwise it replays, and engine_query_replay_total{reason}
// counts why:
//
//   - the plan is close-inert: it scans only streams, none AS OF, and has
//     no EMIT AFTER DELAY (the engine checks this; a bounded or AS OF scan
//     completes, and a delay timer fires, only at Close or on a heartbeat).
//     Reason not_inert;
//   - a session is resident under the read's plan key, whatever its
//     readers' modes. Reason no_session;
//   - the session is open. Reason closed;
//   - its driver has only ever been fed in merge order
//     (exec.Driver.FedInMergeOrder). The session mirrors that bit into an
//     atomic after each feed, before the feed's output is retained, so a
//     read never sees output of an out-of-order feed. The bit is not
//     checkpointed: a restored session counts as out of order. Reason
//     out_of_order;
//   - the session still retains its output: no MaxRetainedRows overflow
//     released it. Once a later subscriber's successor takes the key, reads
//     go to the successor instead. Reason overflow.
//
// The commit point is the engine's Quiesce, the same barrier a replaying
// read passes: every commit acknowledged before the read began has been
// applied, and its output retained, before the read looks. The read takes
// the session's mu only long enough to copy the slice header of the
// retained log (capped, so later appends stay invisible) and the fold, and
// cuts the log outside it; a table read then takes the fold's mutex alone.
// It never takes Manager.mu or ingestMu, so a running feed cannot stall it.
// TestResidentReadMatchesReplay and FuzzResidentRead hold every
// served read to a replay, and TestResidentTableReadFoldsOnlyNewOutput pins
// how much of the retained output each table read folds.
//
// # Lock order
//
// Manager.mu → engine catalog lock → Session.ingestMu → Session.mu; nothing
// takes them in reverse. A table read takes the fold's mutex with no other lock
// held, and takes none while holding it. ingestMu serializes driver access and
// is held for a whole feed; mu guards the cursors and the retained output, and
// a commit holds it only to append a delivery. So readers, Attach, Stats,
// resident reads and a peer's Cancel or Close wait at most for an append, never
// for a running feed; a reader holds mu only to find its next piece or record a
// receipt, never while it sends, and nothing holds either lock while waiting on
// a consumer (the commit's hand-off to a waiting consumer cannot block). Shard
// workers take only the session locks, never Manager.mu, so a publisher blocked
// on a full shard queue cannot deadlock against its own workers; a worker that
// must unregister a dead session does so from a fresh goroutine, and teardown
// takes Manager.mu with neither session lock held.
package live
