// Package exec implements the push-based incremental execution engine.
//
// A compiled pipeline is a DAG of operators mirroring the logical plan. The
// driver merges the source changelogs into a single processing-time-ordered
// event timeline and pushes each event into the scans; every operator
// transforms input changelog events into the exact delta of its output
// relation, so at any processing time the materialized output equals the
// logical plan applied to the inputs' instantaneous relations (the pointwise
// semantics of Section 3.1 of the paper). Watermark events flow through the
// same channels and drive group completion, state cleanup, and the EMIT
// materialization operators.
//
// One driver, Pipeline, runs every one-shot query and every standing query.
//
// # Adding an operator
//
// A new operator implements sink, and batchSink when batching pays (see
// pushBatch for the equivalence a batch must keep); a stateful one also
// implements SaveState/LoadState (the contract is in checkpoint.go) and, if
// its state is keyed by event-time columns, registers its groups with a
// completionIndex so a watermark closes and evicts them. Pipeline.build wires
// it to its plan node. Nothing else changes.
//
// # Output: who holds it, who renders it
//
// A pipeline's output is held once, by whoever asked for it. The Collector
// at the root of every pipeline keeps only the events not yet drained, the
// output watermark, and counters:
//
//   - Drain hands the undrained events to the caller, which owns them from
//     then on; the collector starts a fresh buffer and keeps nothing. A
//     standing query (internal/live) renders and retains what it drains by
//     its own policy. Close completes the input and leaves what that
//     materializes for one more Drain.
//   - Run never drains. It builds its Result from the whole log it
//     collected and folds the table rendering (Result.Snapshot) from that
//     log once, failing on a retraction of a row the log never inserted.
//     The stream rendering (Result.StreamRows) is derived from the log on
//     demand. Nothing on the incremental path builds a table rendering.
//
// Emitted rows are immutable: the collector, a Result and a drain caller
// may all share them without copying.
//
// A checkpoint of the collector carries the undrained events, so the
// concatenation of Drains before and after a restore equals the
// uninterrupted sequence. Its relation slot is always written empty;
// snapshots taken before the collector stopped keeping a relation load, and
// the relation they carry is discarded.
package exec
