package exec

import (
	"slices"

	"repro/internal/types"
)

// eventKey is one event-time grouping column with its completion offset: the
// column's value plus the offset is the watermark at which it stops admitting
// input.
type eventKey struct {
	pos    int
	offset types.Duration
}

// completionTime is the watermark at which a group with these key values
// completes: max(key_i + offset_i). Groups with no event-time keys, or a NULL
// or non-timestamp key value, never complete (ok=false).
func completionTime(keys []eventKey, row types.Row) (at types.Time, ok bool) {
	if len(keys) == 0 {
		return 0, false
	}
	at = types.MinTime
	for _, ek := range keys {
		v := row[ek.pos]
		if v.IsNull() || v.Kind() != types.KindTimestamp {
			return 0, false
		}
		at = max(at, v.Timestamp().Add(ek.offset))
	}
	return at, true
}

// groupComplete reports whether the watermark has passed every event-time key
// of the row. This single predicate decides late-data dropping for every
// operator that registers groups with a completionIndex — and, because closed
// groups are evicted rather than remembered, it is the ONLY thing that keeps a
// late row from re-creating its group: a row whose group is absent is late iff
// groupComplete(keys, row, wm).
func groupComplete(keys []eventKey, row types.Row, wm types.Time) bool {
	at, ok := completionTime(keys, row)
	return ok && wm >= at
}

// dueGroup is one open group waiting in a completionIndex for the watermark
// that completes it. It holds no pointer, so the heap's sifts move plain
// words.
type dueGroup struct {
	slot int32      // the group's slot in the operator's keyedStore
	seq  int        // first-seen sequence
	at   types.Time // completion time
}

// completionIndex is how an operator whose state is keyed by event-time
// columns finds the groups a watermark completes: a min-heap of its open
// groups by completion time. The contract: a new group registers its slot
// with the index (add); on a watermark the operator asks the index which
// groups closed (advance), finishes them, and removes them from its store.
// An operator never scans closed groups — a watermark costs O(groups
// closing), and everything the operator holds, serializes, or reports is
// bounded by the open groups, which are exactly the live slots of its store.
// A group that can never complete (no event-time keys, or a NULL /
// non-timestamp key value) gets a sequence number and is otherwise not held
// here.
type completionIndex struct {
	keys []eventKey

	due    []dueGroup // min-heap by (at, seq)
	closed []dueGroup // advance's reusable result buffer
	freed  int        // groups closed by advance, ever
	seq    int        // next first-seen sequence
}

// complete reports whether wm has passed every event-time key of the row: a
// row whose group is absent from the operator's store is late iff this holds.
func (x *completionIndex) complete(row types.Row, wm types.Time) bool {
	return groupComplete(x.keys, row, wm)
}

// add registers a new open group by its slot. keyRow carries the event-time
// key values at the index's key positions.
func (x *completionIndex) add(slot int32, keyRow types.Row) {
	seq := x.seq
	x.seq++
	if at, ok := completionTime(x.keys, keyRow); ok {
		x.due = append(x.due, dueGroup{slot: slot, seq: seq, at: at})
		x.siftUp(len(x.due) - 1)
	}
}

// advance closes exactly the groups whose completion time is at or before wm
// and returns them in first-seen order (the order a walk over every group
// would have met them in, which downstream materialization depends on). The
// result is valid until the next advance.
func (x *completionIndex) advance(wm types.Time) []dueGroup {
	x.closed = x.closed[:0]
	for len(x.due) > 0 && x.due[0].at <= wm {
		x.closed = append(x.closed, x.due[0])
		last := len(x.due) - 1
		x.due[0] = x.due[last]
		x.due = x.due[:last]
		x.siftDown(0)
	}
	x.freed += len(x.closed)
	slices.SortFunc(x.closed, func(a, b dueGroup) int { return a.seq - b.seq })
	return x.closed
}

// before orders the heap: by completion time, first-seen sequence breaking
// ties.
func (x *completionIndex) before(i, j int) bool {
	if x.due[i].at != x.due[j].at {
		return x.due[i].at < x.due[j].at
	}
	return x.due[i].seq < x.due[j].seq
}

func (x *completionIndex) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(i, parent) {
			return
		}
		x.due[i], x.due[parent] = x.due[parent], x.due[i]
		i = parent
	}
}

func (x *completionIndex) siftDown(i int) {
	for {
		c := 2*i + 1
		if c >= len(x.due) {
			return
		}
		if r := c + 1; r < len(x.due) && x.before(r, c) {
			c = r
		}
		if !x.before(c, i) {
			return
		}
		x.due[i], x.due[c] = x.due[c], x.due[i]
		i = c
	}
}

// reset forgets every group (restore replaces state wholesale).
func (x *completionIndex) reset() {
	*x = completionIndex{keys: x.keys}
}
