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
// One SQL text denotes one time-varying relation regardless of how many
// consumers watch it, so sessions are shared: a Session is the resident
// pipeline, and any number of subscriber cursors attach to it, each with its
// own bounded delta channel, slow-consumer policy, and stats (Attach).
// Manager.Subscribe keys resident sessions by plan (normalized SQL, mode) so
// identical subscriptions reuse one pipeline; an empty key makes a dedicated
// session that retains no output. A cursor that attaches after the pipeline
// has already produced output receives a snapshot hand-off first — the table
// rendering as one consolidated initial diff, or the stream rendering
// re-rendered from the retained output changelog so it starts at the current
// version numbers — which is byte-identical to what a dedicated subscription
// opened at the same instant would deliver. Attach runs under the manager's
// ordering lock, so no commit slips between the snapshot and live routing.
// The session tears down when its last cursor departs.
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
// A Stream-mode session's retained output changelog is the output a
// one-shot Run of the same plan would collect, as long as closing the
// pipeline would add nothing. So the engine answers a table read at the
// current instant from it (Manager.ResidentOutput) instead of replaying the
// recorded history, when all of these hold:
//
//   - the plan is close-inert: it scans only streams, none AS OF, and has
//     no EMIT AFTER DELAY (the engine checks this; a bounded or AS OF scan
//     completes, and a delay timer fires, only at Close);
//   - a session is resident under the plan key of the same SQL in Stream
//     mode, so exclusive and Table-mode-only sessions never answer;
//   - the session is open and still retains its output, so neither
//     DropRetainedOutput nor a MaxRetainedRows overflow released it;
//   - its driver has only ever been fed in merge order
//     (exec.Driver.FedInMergeOrder). The session mirrors that bit into an
//     atomic after each feed, before the feed's output is retained, so a
//     read never sees output of an out-of-order feed. The bit is not
//     checkpointed: a restored session counts as out of order.
//
// The commit point is the engine's Quiesce, the same barrier a replaying
// read passes: every commit acknowledged before the read began has been
// applied, and its output retained, before the read looks. The read takes
// only the session's mu, long enough to copy the slice header of the
// retained log (capped, so later appends stay invisible), and folds it
// outside any lock. It never takes Manager.mu or ingestMu, so a delivery
// parked on a full Block-policy cursor, whose output is retained before it
// parks, cannot stall it. Anything else replays: reads at an earlier
// instant, stream-rendering reads, and every case the list above excludes.
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
