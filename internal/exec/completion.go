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

// dueGroup is a group's entry in a dueHeap: its slot, a sequence number
// and the time it is due. It holds no pointer, so the heap's sifts move
// plain words.
type dueGroup struct {
	slot int32      // the group's slot in the operator's tvr.Store
	seq  int        // first-seen or arming sequence: unique per heap
	at   types.Time // completion time, or a timer's deadline
}

// dueHeap is a min-heap of groups by (at, seq), held by value in one slice:
// the completion index's open groups and the AFTER DELAY operator's timers.
// Its push, pop and init are container/heap's algorithms step for step, so a
// heap saved in array order and re-initialized lays out as it did when
// container/heap kept it.
type dueHeap []dueGroup

func (h dueHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *dueHeap) push(d dueGroup) {
	*h = append(*h, d)
	h.up(len(*h) - 1)
}

// pop removes and returns the first group; the heap must not be empty.
func (h *dueHeap) pop() dueGroup {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	*h = old[:n]
	return old[n]
}

// init orders an arbitrary array into a heap.
func (h dueHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h dueHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h dueHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			return
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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

	due    dueHeap    // the open groups by completion time
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
		x.due.push(dueGroup{slot: slot, seq: seq, at: at})
	}
}

// advance closes exactly the groups whose completion time is at or before wm
// and returns them in first-seen order (the order a walk over every group
// would have met them in, which downstream materialization depends on). The
// result is valid until the next advance.
func (x *completionIndex) advance(wm types.Time) []dueGroup {
	x.closed = x.closed[:0]
	for len(x.due) > 0 && x.due[0].at <= wm {
		x.closed = append(x.closed, x.due.pop())
	}
	x.freed += len(x.closed)
	slices.SortFunc(x.closed, func(a, b dueGroup) int { return a.seq - b.seq })
	return x.closed
}

// reset forgets every group (restore replaces state wholesale).
func (x *completionIndex) reset() {
	*x = completionIndex{keys: x.keys}
}
