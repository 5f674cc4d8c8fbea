package exec

import (
	"container/heap"
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
// that completes it.
type dueGroup[G any] struct {
	g   G
	key string     // the operator's map key for g
	seq int        // first-seen sequence
	at  types.Time // completion time
}

// completionIndex is how an operator whose state is keyed by event-time
// columns finds the groups a watermark completes: a min-heap of its open
// groups by completion time. The contract: a new group registers with the
// index (add) and remembers the first-seen sequence it is given; on a
// watermark the operator asks the index which groups closed (advance),
// finishes them, and deletes them from its map. An operator never scans
// closed groups — a watermark costs O(groups closing), and everything the
// operator holds, serializes, or reports is bounded by the open groups, which
// are exactly the entries of its map. A group that can never complete (no
// event-time keys, or a NULL / non-timestamp key value) gets a sequence
// number and is otherwise not held here.
type completionIndex[G any] struct {
	keys []eventKey

	due    completionHeap[G]
	closed []*dueGroup[G] // advance's reusable result buffer
	freed  int            // groups closed by advance, ever
	seq    int            // next first-seen sequence
}

// complete reports whether wm has passed every event-time key of the row: a
// row whose group is absent from the operator's map is late iff this holds.
func (x *completionIndex[G]) complete(row types.Row, wm types.Time) bool {
	return groupComplete(x.keys, row, wm)
}

// add registers a new open group under the operator's map key and returns
// its first-seen sequence. keyRow carries the event-time key values at the
// index's key positions.
func (x *completionIndex[G]) add(key string, g G, keyRow types.Row) (seq int) {
	seq = x.seq
	x.seq++
	if at, ok := completionTime(x.keys, keyRow); ok {
		heap.Push(&x.due, &dueGroup[G]{g: g, key: key, seq: seq, at: at})
	}
	return seq
}

// advance closes exactly the groups whose completion time is at or before wm
// and returns them in first-seen order (the order a walk over every group
// would have met them in, which downstream materialization depends on). The
// result is valid until the next advance.
func (x *completionIndex[G]) advance(wm types.Time) []*dueGroup[G] {
	clear(x.closed) // drop the previous round's groups
	x.closed = x.closed[:0]
	for len(x.due) > 0 && x.due[0].at <= wm {
		x.closed = append(x.closed, heap.Pop(&x.due).(*dueGroup[G]))
	}
	x.freed += len(x.closed)
	slices.SortFunc(x.closed, func(a, b *dueGroup[G]) int { return a.seq - b.seq })
	return x.closed
}

// reset forgets every group (restore replaces state wholesale).
func (x *completionIndex[G]) reset() {
	*x = completionIndex[G]{keys: x.keys}
}

// firstSeen returns an operator's open groups in first-seen order: the order
// snapshots list them in, so that a restore — which re-adds them in that
// order — reproduces the sequence every later tie-break depends on.
func firstSeen[G any](groups map[string]G, seq func(G) int) []G {
	out := make([]G, 0, len(groups))
	for _, g := range groups {
		out = append(out, g)
	}
	slices.SortFunc(out, func(a, b G) int { return seq(a) - seq(b) })
	return out
}

// completionHeap orders open groups by completion time, first-seen sequence
// breaking ties.
type completionHeap[G any] []*dueGroup[G]

func (h completionHeap[G]) Len() int { return len(h) }
func (h completionHeap[G]) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap[G]) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap[G]) Push(x any)   { *h = append(*h, x.(*dueGroup[G])) }
func (h *completionHeap[G]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
