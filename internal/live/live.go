package live

import (
	"errors"

	"repro/internal/tvr"
	"repro/internal/types"
)

// Mode selects which rendering of the output TVR a subscription receives.
type Mode int

const (
	// Stream delivers the changelog rendering: every output change as a
	// tvr.StreamRow with undo/ptime/ver metadata (Extension 4).
	Stream Mode = iota
	// Table delivers consolidated snapshot diffs: the net row changes
	// since the previous delivery.
	Table
)

// String names the mode.
func (m Mode) String() string {
	if m == Table {
		return "table"
	}
	return "stream"
}

// Policy says what happens when a subscriber's delta channel is full.
type Policy int

const (
	// Block applies backpressure: the ingesting goroutine waits until the
	// subscriber drains (or the subscription is canceled). Ingest latency
	// becomes coupled to the slowest blocking subscriber; on a shared
	// session every other cursor still receives its buffer hand-off
	// first, so peers keep draining while the ingest waits.
	Block Policy = iota
	// DropWithError terminates the subscription with ErrSlowConsumer
	// instead of stalling ingestion: the channel closes and Err reports
	// the drop, so the subscriber knows its view is no longer complete.
	// On a shared session only the slow cursor is dropped; the resident
	// pipeline and its other subscribers are untouched.
	DropWithError
)

// String names the policy.
func (p Policy) String() string {
	if p == DropWithError {
		return "drop"
	}
	return "block"
}

// ErrSlowConsumer reports that a DropWithError subscription fell behind and
// was terminated rather than stalling ingestion.
var ErrSlowConsumer = errors.New("live: subscription dropped: consumer too slow")

// ErrClosed reports an operation on a canceled or closed subscription.
var ErrClosed = errors.New("live: subscription closed")

// ErrRetainedOverflow reports a late attach to a shared session whose
// retained output exceeded its Config.MaxRetainedRows cap: the retention was
// released to bound memory, so the session can no longer synthesize the
// snapshot hand-off a late subscriber needs. Existing cursors are unaffected;
// the caller can open a dedicated (Exclusive) subscription instead, which
// replays recorded history rather than the retained log.
var ErrRetainedOverflow = errors.New("live: retained output exceeded the configured cap; late attach unavailable")

// Delta is one incremental result delivery. Exactly one of Stream and Table
// is populated, matching the subscription's Mode.
type Delta struct {
	// Stream holds the new stream-rendered output rows (Stream mode).
	Stream []tvr.StreamRow
	// Table holds the consolidated snapshot diff (Table mode).
	Table *TableDiff
	// Watermark is the output relation's watermark when the delta
	// materialized.
	Watermark types.Time
}

// TableDiff is the net change to the output snapshot across one delivery:
// insert/delete pairs for the same row within the window cancel out.
type TableDiff struct {
	// Ptime is the processing time of the last change folded in.
	Ptime types.Time
	// Inserted rows were added to the snapshot (with multiplicity).
	Inserted []types.Row
	// Deleted rows were removed from the snapshot (with multiplicity).
	Deleted []types.Row
}

// tableAcc incrementally maintains the state consolidate derives from a
// changelog: per-row net multiplicities in first-appearance order, plus the
// latest data ptime. A shared Table-mode session keeps one alive across
// deliveries so a late attacher's snapshot hand-off is synthesized from
// state bounded by distinct rows, not by the full output history.
type tableAcc struct {
	counts map[string]*rowAcc
	order  []string
	ptime  types.Time
	// scratch is the reusable key-encoding buffer: steady-state applies look
	// the row up through string(scratch) (allocation-free) and only
	// materialize the key string when the row is first seen.
	scratch []byte
}

type rowAcc struct {
	row types.Row
	n   int
}

func newTableAcc() *tableAcc {
	return &tableAcc{counts: make(map[string]*rowAcc), ptime: types.MinTime}
}

// apply folds one changelog event into the accumulator.
func (a *tableAcc) apply(ev tvr.Event) {
	if !ev.IsData() {
		return
	}
	if ev.Ptime > a.ptime {
		a.ptime = ev.Ptime
	}
	a.scratch = ev.Row.AppendKey(a.scratch[:0])
	r := a.counts[string(a.scratch)] // allocation-free lookup
	if r == nil {
		r = &rowAcc{row: ev.Row}
		k := string(a.scratch)
		a.counts[k] = r
		a.order = append(a.order, k)
	}
	if ev.Kind == tvr.Insert {
		r.n++
	} else {
		r.n--
	}
}

// applyLog folds a whole drained batch into the accumulator — the batch
// counterpart the per-delta delivery path uses so a session consolidates one
// applied batch in a single call.
func (a *tableAcc) applyLog(out tvr.Changelog) {
	for i := range out {
		a.apply(out[i])
	}
}

// diff renders the accumulated net change as a fresh snapshot diff.
func (a *tableAcc) diff() *TableDiff {
	d := &TableDiff{Ptime: a.ptime}
	for _, k := range a.order {
		r := a.counts[k]
		for i := 0; i < r.n; i++ {
			d.Inserted = append(d.Inserted, r.row)
		}
		for i := 0; i < -r.n; i++ {
			d.Deleted = append(d.Deleted, r.row)
		}
	}
	return d
}

// consolidate nets a drained output changelog into a snapshot diff.
func consolidate(out tvr.Changelog) *TableDiff {
	a := newTableAcc()
	a.applyLog(out)
	return a.diff()
}

// Stats is a point-in-time snapshot of a subscription's counters. EventsIn,
// Watermark, PipelineID, and Subscribers describe the shared
// resident pipeline; DeltasOut, RowsOut, and QueueDepth are this
// subscriber's own cursor.
type Stats struct {
	// EventsIn counts source events fed into the standing pipeline
	// (including watermarks).
	EventsIn int64
	// DeltasOut counts deltas delivered to the subscriber.
	DeltasOut int64
	// RowsOut counts output rows across all delivered deltas.
	RowsOut int64
	// Watermark is the output relation's current watermark.
	Watermark types.Time
	// QueueDepth is the number of deltas waiting in the channel.
	QueueDepth int
	// PipelineID identifies the resident pipeline; subscriptions sharing
	// a plan report the same id.
	PipelineID int
	// Subscribers is the number of cursors currently attached to the
	// resident pipeline (1 for an unshared subscription).
	Subscribers int
	// Shard is the resident pipeline's shard index under the sharded
	// ingest subsystem, or -1 under the serial fan-out.
	Shard int
	// Dispatches counts operator-chain dispatches inside the standing
	// pipeline (one per delivered batch or run; see exec.Stats).
	Dispatches int64
	// EventsPerDispatch is the mean number of source events carried per
	// dispatch — the batching efficiency of the standing pipeline (1.0
	// means pure per-event delivery).
	EventsPerDispatch float64
}

// CursorOpts configures one subscriber cursor attached to a session.
type CursorOpts struct {
	// Buffer is the cursor's delta channel capacity (default 64).
	Buffer int
	// Policy is the cursor's slow-consumer policy.
	Policy Policy
}
