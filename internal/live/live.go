package live

import (
	"errors"

	"repro/internal/tvr"
	"repro/internal/types"
)

// Mode selects which rendering of the output TVR a subscription receives. It
// is a property of the cursor, not of the session (see CursorOpts).
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

// ErrClosed reports an operation on a canceled or closed subscription.
var ErrClosed = errors.New("live: subscription closed")

// ErrRetainedOverflow reports that a session's retained output exceeded its
// Config.MaxRetainedRows cap and was released to bound memory, so the session
// can no longer synthesize the snapshot hand-off a new cursor needs. Existing
// cursors are unaffected. Manager.Subscribe answers a late subscriber of such
// a session with a successor, so a subscriber sees this error only when its
// own cap cannot hold the output of the recorded history; retain 0
// (unbounded) always can.
var ErrRetainedOverflow = errors.New("live: retained output exceeded the configured cap")

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

// consolidate nets an output changelog into a snapshot diff: each row's net
// multiplicity, in first-appearance order, plus the latest data ptime. A
// table cursor's reader builds it per delivery, and over the whole retained
// output before its attach point as its hand-off.
func consolidate(out tvr.Range[tvr.Event]) *TableDiff {
	type rowAcc struct {
		row types.Row
		n   int
	}
	var counts tvr.Store[rowAcc] // iterates in first-appearance order
	var key []byte
	d := &TableDiff{Ptime: types.MinTime}
	for out.Len() > 0 {
		var evs []tvr.Event
		evs, out = out.Next()
		for _, ev := range evs {
			if !ev.IsData() {
				continue
			}
			if ev.Ptime > d.Ptime {
				d.Ptime = ev.Ptime
			}
			key = ev.Row.AppendKey(key[:0])
			sl := counts.Find(key)
			if sl < 0 {
				sl = counts.Insert(key)
				counts.At(sl).row = ev.Row
			}
			if ev.Kind == tvr.Insert {
				counts.At(sl).n++
			} else {
				counts.At(sl).n--
			}
		}
	}
	for sl := counts.First(); sl >= 0; sl = counts.Next(sl) {
		r := counts.At(sl)
		for i := 0; i < r.n; i++ {
			d.Inserted = append(d.Inserted, r.row)
		}
		for i := 0; i < -r.n; i++ {
			d.Deleted = append(d.Deleted, r.row)
		}
	}
	return d
}

// Stats is a point-in-time snapshot of a subscription's counters. EventsIn,
// Watermark, PipelineID, and Subscribers describe the shared
// resident pipeline; DeltasOut, RowsOut, and Unread are this
// subscriber's own cursor.
type Stats struct {
	// EventsIn counts source events fed into the standing pipeline
	// (including watermarks).
	EventsIn int64
	// DeltasOut counts the deltas owed to the subscriber: its hand-off and
	// one per delivery since, counted when the delivery is appended to the
	// session's output, so it is final once the producer is idle.
	DeltasOut int64
	// RowsOut counts output rows across those deltas. A stream cursor's
	// are counted with DeltasOut; a table cursor's, the rows of each
	// consolidated diff, when its reader builds the diff.
	RowsOut int64
	// Watermark is the output relation's current watermark.
	Watermark types.Time
	// Unread is the number of deltas the subscriber has not yet
	// received.
	Unread int
	// PipelineID identifies the resident pipeline; subscriptions sharing
	// a plan report the same id.
	PipelineID int
	// Subscribers is the number of cursors currently attached to the
	// resident pipeline.
	Subscribers int
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
	// Mode is the rendering the cursor receives. Cursors of either mode
	// share one session: both renderings derive from its output changelog.
	Mode Mode
}
