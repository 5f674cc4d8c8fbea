// Package core is the public face of the streaming SQL engine: a catalog of
// time-varying relations (streams and tables) plus query entry points that
// parse, plan, optimize, and execute the paper's SQL dialect.
//
// The engine models processing time explicitly: every ingested change
// carries a ptime, and queries are evaluated either as a table snapshot "as
// of" a processing time (the classic point-in-time rendering) or as a stream
// (the changelog rendering with undo/ptime/ver metadata, Extension 4). This
// determinism is what lets the test suite regenerate the paper's listings
// byte for byte.
//
// # The data directory
//
// A durable engine is opened with Open, which owns its data directory:
//
//	<dir>/checkpoint.ckpt        the last completed snapshot
//	<dir>/checkpoint.ckpt.tmp*   snapshots a crash interrupted
//	<dir>/wal/wal-<seq>.seg      the write-ahead log (package wal)
//
// Open creates the directory, removes interrupted snapshots, restores the
// snapshot if it exists, replays the log tail, reopens the log at the next
// sequence number and attaches it, and on first boot writes the initial
// snapshot, so every later boot is snapshot plus tail. Only a snapshot that
// definitely does not exist starts fresh: any other stat failure fails the
// boot, since an empty engine's next checkpoint would overwrite the durable
// one. WithFS routes all of this I/O, the log's included, through a vfs.FS.
//
// # Commit order
//
// Every commit (an AppendLog batch, a Heartbeat, a registration) is
// validated, appended to the log under the next sequence number, applied to
// the catalog, and fanned out to standing queries, all under the live
// manager's ordering lock; a registration fans out to no one and takes only
// the catalog lock. So the log records only changes that commit, a log
// failure refuses the change with the catalog untouched, and log order is
// fan-out order. An empty AppendLog batch is checked (registered relation,
// not degraded) but neither logged, sequenced nor fanned out.
//
// A commit made through Before carries a deadline. Its first step under the
// lock that orders it (the ordering lock; the catalog lock for a
// registration; the checkpoint lock for a Checkpoint) compares the deadline
// with the clock, and past it the commit is refused with ErrDeadlinePassed,
// leaving no log frame, no sequence number and no change behind. A commit
// that passes the check completes however long its log append takes, so a
// refusal always means nothing committed.
//
// Under wal.SyncAlways a commit is acknowledged only once its record is
// fsynced: ack == durable. An interval policy risks up to one interval of
// acknowledged commits; wal.SyncNone leaves write-back to the OS.
//
// # Recovery = snapshot + tail
//
// A snapshot records the log sequence number it covers through, taken under
// the same locks as its state. Recovery restores it and re-publishes the log
// tail through the ordinary commit path, skipping the records it covers, so
// a crash between a snapshot and its truncation is harmless. The recovered
// engine (catalog, query results, every standing query's later deltas) is
// byte-identical to the engine at its last acknowledged commit; the commit
// in flight at the crash may be durable without its ack. TestCrashPointSoak
// crashes after every file-system operation of Open and a workload.
//
// # Truncation as compaction
//
// Checkpoint writes an atomic snapshot (temp file, fsync, rename, directory
// fsync), then truncates the log through its sequence number, whole segments
// only. A failed truncation does not fail the checkpoint: the snapshot is
// durable, and CheckpointStatus reports the error until the next success.
//
// # Degraded read-only mode
//
// When the log cannot keep its promise, every commit is refused with
// ErrDegraded while one-shot queries and open subscriptions keep serving the
// last committed state. The engine enters the mode on an append that poisons
// the log (a failed fsync, see package wal), after degradeAfter consecutive
// failed appends, or after degradeAfter consecutive failed checkpoints. It
// leaves only through ClearDegraded, which recovers the log and makes a no-op
// record durable before ingest reopens; a successful Checkpoint tries it.
package core
