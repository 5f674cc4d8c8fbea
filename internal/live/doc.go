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
// mode, position and stats (Attach). Manager.Subscribe shares sessions by
// plan key, which the engine derives from the optimized plan: its EXPLAIN
// rendering, the output schema, EMIT AFTER WATERMARK, the AFTER DELAY
// duration and the emit-key columns. Stream and table readers of a query,
// and its spellings (whitespace, keyword case, table aliases), therefore
// share one pipeline; EMIT STREAM, ORDER BY and LIMIT are presentation and
// stay out of the key.
//
// A session's retained output (type output) is the relation's changelog,
// the stream rendering of the source paper's Extension 4, as three
// tvr.Logs addressed by absolute position: the output rows, their stream
// versions, and the delivery marks (where each delivery ends, and the
// output watermark). The rows log is the driver's own output log
// (exec.Driver.Output): the operators stage each row there as they emit it,
// on the committing goroutine and without the session's mu, past the
// published end where no reader looks. The commit then publishes what was
// staged as one delivery under the session's mu and appends its mark; it
// versions nothing. So a row is copied once between the operator that
// emits it and the retained log, and no delivery copies the history before
// it.
//
// Versions are assigned lazily, in order, from the versioned-through
// position (the end of the versions log), by the first party that needs
// them: a stream cursor's reader before it sends, a stream one-shot read's
// cut, a trim past the cap, or a checkpoint's save. That party holds the
// session's versioning lock (Session.vmu), which guards the versions log
// and the renderer's counters and which no commit takes: it captures the
// unversioned rows under the session's mu and versions them after releasing
// it (Session.capture), each row once. Extension 4 numbers the changes of
// one event-time grouping in changelog order, and the retained output fixes
// that order at commit, so who versions a row, and when, does not change
// its version. A session whose cursors are all table cursors versions
// nothing until a stream read or a checkpoint needs it, or a trim past its
// cap. The live_renderer_groups gauge is stored by whoever versions.
//
// A cursor is one delivery index in the retained output plus its attach
// index. Its reader sends the deliveries before the attach index as one
// first delta, the hand-off, at the session's watermark at attach, then one
// delta per delivery, at its consumer's pace: the rows at their versions,
// or for a table cursor their consolidated diff. The hand-off is
// byte-identical to what a fresh pipeline replaying the recorded history at
// the same instant would deliver, and versions no row twice. Attach takes
// its indexes under the session's mu, which every append holds, so no
// delivery falls between the hand-off and the live deltas. The session
// tears down when its last cursor departs; that cursor's Close completes the
// pipeline and receives, after what it had not yet read, the close-time
// output in its own mode.
//
// An uncapped session retains all of its output, even when only table
// readers use it. Config.MaxRetainedRows, fixed by the subscription that
// creates the session, caps it in rows. Past the cap the session serves
// neither late attach nor resident reads and keeps only the deliveries some
// cursor has not yet received; its cursors are unaffected. Trimming retires
// the deliveries below the lowest cursor and frees every chunk of the three
// logs that holds none of the rest, so a capped session whose readers keep
// up holds at most its cap plus one chunk of rows
// (TestCappedRetentionFreesChunks). A trim under the session's mu drops rows
// only as far as they are versioned, and the versions log is trimmed by its
// versioner. A stream cursor versions what it reads, so only a session read
// by table cursors alone falls behind: the reader whose advance found the
// trim held back versions up to it and trims again (Session.trimPastCap); a
// departing cursor's rows wait for that. The live_retained_rows gauge sums
// the rows each session retains, stored per delivery and per trim. The next
// Subscribe under its key then builds a successor through the ordinary
// create path, under the new subscriber's options (history replay, clock
// catch-up, then its cursor), and the successor takes the key. The
// predecessor serves the cursors it has and tears down with the last one,
// leaving the successor's key alone. A subscriber sees ErrRetainedOverflow
// only when its own cap cannot hold the output of the recorded history, and
// then no session is left behind.
//
// # Checkpoint and restore
//
// Manager.CheckpointAll writes every open session that holds its plan key
// (driver state, stream-renderer counters, retained rows, none past the cap)
// under the ordering lock, after the engine's catalog, so both describe one
// commit point. The counters it writes are those of every row: before it
// takes that lock it versions each session's output as a stream reader does
// (capture), beside the commits, and under the lock and the session's
// versioning lock only the rows committed since. A superseded predecessor
// is skipped, and its cursors die with the process. Sessions are written
// with neither key nor mode, and without delivery marks or versions; a
// retired flag slot, always false, keeps the record's layout. RestoreAll re-plans each one's SQL against the
// restored catalog (RestoreQuery), re-derives its key, versions the rows
// again with a fresh renderer, and installs them, in memory only, as one
// delivery at the restored watermark, which a reader that attaches gets as
// its hand-off. It also reads the layout written while sessions had a mode
// and were keyed by SQL text. A legacy stream session loads as above; a
// legacy table session kept only distinct rows, so it is decoded, dropped
// and rebuilt from the recorded history, caught up to the last heartbeat, as
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
// The manager numbers each commit, a publish or a heartbeat, with a sequence
// number that the slow-commit log line carries, and keeps the last committed
// heartbeat: the clock a late registration starts from, and the clock the
// live_watermark_lag_seconds gauge measures lag against. Both advance only
// under Manager.mu; the clock is also an atomic, so the gauge reads it at
// scrape time without the lock.
//
// One rule is the whole concurrency contract of a session's driver, which
// has one caller at a time:
//
//   - while a session is registered (in the manager's routing table), only
//     code that holds Manager.mu calls its driver: the fan-out of a commit,
//     CheckpointAll, and the registration that catches it up;
//   - the goroutine that removes a session from the routing table, under
//     Manager.mu, owns its driver from then on. The fan-out removes a
//     session whose delivery failed and completes its driver as it fails.
//     The departing last cursor (Session.retire) marks the session closed
//     and removes it in one critical section under Manager.mu and the
//     session's mu, then completes the driver: a Close appends the
//     close-time output under the session's mu, a Cancel discards it;
//   - a session that was never registered is driven by its one owner:
//     Subscribe while it registers the session, or a test that built it
//     with NewSession.
//
// So a registered session is open whenever Manager.mu is free, and a
// checkpoint under that lock finds every driver quiescent.
//
// Fan-out runs on the committing goroutine: it feeds the driver, publishes
// the output to the session's retained output as one delivery, owes each
// cursor a delta and wakes the session's idle readers; it never waits on
// one, and it neither versions nor renders: each reader does, before it
// sends. A subscriber that stops reading therefore stalls no commit, no
// peer, no resident read and no checkpoint: its unread deliveries wait in
// the retained output, and when it reads again it receives exactly what a
// reading peer received. DeltasOut counts a delivery as it is appended, so
// it is final once the producer is idle. A session that refuses a delivery
// (closed or failed) leaves the routing table. A panic anywhere in a
// delivery (the driver call, publishing its output, waking the cursors)
// fails only its own session (Session.step is the one boundary): its readers
// still send what was appended before it, then end with its error, and a
// registration that panics fails its Subscribe. A reader versions and
// renders on its own goroutine, outside that boundary, as it always
// consolidated a table cursor's diff.
//
// # One-shot reads from a resident pipeline
//
// A table read at processing time T is the snapshot of the output TVR at T,
// and a stream read up to T is its changelog up to T (the source paper's
// section 3). Both are one cut of the retained output
// (Manager.ResidentRead): its rows with ptime <= T, found by tvr.Cut, a
// binary search over the chunks' first ptimes and then inside one chunk. A
// stream read versions the cut's unversioned rows and renders it at its
// versions, as a cursor renders a delivery. Those are the versions a replay
// counts from 1, because every session that serves reads versioned its
// output from the first row: a fresh or successor session replays the
// history from the start, and restore versions with a fresh renderer. The
// read also applies the cut to a fresh tvr.Relation, as a replay folds its
// output, so an output Delete of a row never inserted (a client may ingest
// one, and a passthrough plan carries it) fails the read with the replay's
// error.
//
// A table read takes the snapshot from the session's fold: the table
// rendering of the first n retained rows, in a tvr.Relation, which forgets
// a row at multiplicity zero, so the fold is as large as the current table,
// not the history. A cut of at least n rows extends the fold and copies its
// rows out under the fold's own mutex; a shorter one is folded afresh. The
// rows come out in the iteration order a Run's fold of the same prefix has,
// and each read presents its copy itself (exec.PresentRows), so readers of
// one plan share the fold. It goes at overflow and at close.
//
// The cut is exact. The session is fed in (ptime, scan rank) merge order,
// and every operator stamps an output event with the ptime of the input
// that caused it (the operator contract in internal/exec). So the retained
// ptimes never decrease, the output up to T is what the inputs up to T
// caused, and those are exactly the inputs a replay up to T feeds. What a
// replay adds after them, a heartbeat at T and Close, emits nothing for a
// close-inert plan.
//
// The engine serves a read this way instead of replaying the recorded
// history when all of these hold; otherwise it replays, and
// engine_query_replay_total{reason} counts why:
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
// The commit point is the last acknowledged commit: a commit appends its
// output before it returns, so a read that begins after an acknowledgement
// sees it. The read holds the session's mu only to cut and take the fold,
// and never takes Manager.mu; a stream read also holds the versioning lock
// until the cut's versions are captured. The cut is a captured range of the
// rows log, and for a stream read of the versions log, walked chunk by chunk
// without the locks and never flattened: later deliveries write only past
// it, and a trim leaves the chunks it holds alone (the tvr package's
// "Logs"). A cursor's piece is such a range too.
// TestResidentReadMatchesReplay and FuzzResidentRead hold every served read
// to a replay, and TestResidentTableReadFoldsOnlyNewOutput pins what each
// table read folds.
//
// # Lock order
//
// Manager.mu → engine catalog lock → Session.mu; nothing takes them in
// reverse. The versioning lock, Session.vmu, comes before Session.mu and
// after Manager.mu: a versioner takes it first and holds it while it
// captures rows under Session.mu, then versions them with Session.mu
// released; a checkpoint first versions so, then takes it under Manager.mu
// and versions the rows committed since with both held. No commit takes it, and nothing that holds it takes Manager.mu or
// the catalog lock, so a commit never waits on a versioner: it waits at most
// for a capture's hold of Session.mu. A table read takes the fold's mutex
// with no other lock held, and takes none while holding it. Manager.mu is
// held for a whole commit, feeds included; Session.mu guards the cursors and
// the retained output, and a commit holds it only to publish a delivery (the
// feed stages the rows before it, without the lock). So readers, Attach,
// Stats, resident reads and a non-last cursor's Cancel or Close wait at most
// for a publish, never for a running feed; only the last cursor's departure
// waits for Manager.mu, to remove its session. A reader holds Session.mu
// only to find its next piece or record a receipt, never while it versions
// or sends, and nothing holds any of these locks while waiting on a
// consumer.
package live
