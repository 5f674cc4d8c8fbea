// Package tvr implements time-varying relations (TVRs), the paper's single
// semantic object underlying both tables and streams.
//
// A TVR is canonically encoded as a changelog: a processing-time-ordered
// sequence of events, each inserting or deleting one row, interleaved with
// watermark assertions about event-time completeness. Applying the prefix of
// a changelog up to processing time p to an empty bag yields the
// instantaneous relation at p — the "table" rendering. The changelog itself,
// decorated with undo/ptime/ver metadata, is the "stream" rendering
// (Extension 4 in the paper). The two are duals; package tvr provides both
// plus the conversions between them.
//
// # Logs
//
// Since a TVR is its changelog, the engine keeps every changelog it retains
// in one type, Log: a relation's recorded input in the catalog, and a
// standing query's output rows, their stream versions and its delivery
// marks. The model is the segmented, offset-addressed log of a streaming
// log store: an append never moves an older record, a reader is an offset,
// and retention drops whole segments.
//
//   - Chunks. A log is a list of chunks of ChunkLen elements. An append fills
//     the tail chunk and starts a new one when it is full; past the first
//     chunk it never copies an element already in the log, so appending N
//     elements allocates about N elements' worth of chunks
//     (TestLogAppendAllocs). The first chunk starts small and doubles up to
//     ChunkLen, so a log of a few elements holds a few elements' worth.
//   - Absolute positions. The first element ever appended is at position 0,
//     and a position names the same element for as long as it is retained.
//     TrimBelow(pos) retires the positions below pos and frees every chunk
//     holding none of the rest; it renumbers nothing.
//   - Sealed chunks and lock-free readers. The log's owner guards it with a
//     lock, and a reader captures a Range under that lock (Since, or Cut of
//     a range for a ptime prefix). The range holds the chunks and bounds,
//     not a copy, and stays valid after the lock is released: an element
//     is never written again once published, a later append writes only
//     past the range's end, and a trim builds a new chunk list rather than
//     editing the one a range holds. So a reader walks its range (Next)
//     with no lock while appends and trims go on.
//   - Staging. One goroutine may Stage elements past the published end
//     without the lock, where no range reaches, and Publish them later under
//     it. A standing query's operators stage output rows as they run, and
//     the session publishes them as one delivery, so an output row is copied
//     once between the operator and the retained log.
//   - Bytes. SaveLog writes a range as SaveChangelog writes the same events
//     as a slice, and LoadLog reads either back, so checkpoints do not
//     depend on the chunking.
//
// # Stores
//
// In the paper a group is identified by its key values: an aggregate's
// group, a join's equi-key, the event-time grouping a stream row's ver
// numbers. The engine keeps every such keyed state in one type, Store: the
// operators' groups, join buckets, DISTINCT, set-operation and multiset
// counts, a session window's timestamps, the stream renderer's version
// counters and a table diff's net counts. Keys are the canonical key encoding of the values
// (types.Row.AppendKey and AppendKeyOf). Window groups are short-lived, so
// the store is built for churn:
//
//   - Slots. A value lives in one slab and is addressed by an int32 slot. A
//     removed entry's slot goes on a free list and the next insert takes
//     it, so the slab never outgrows the peak number of live entries, and
//     anything that names an entry (a completion heap, a run cache, a
//     timer) holds its slot. A holder that may outlive the entry checks it
//     is still current. The slab doubles when it fills, as the key arena
//     does, so a store that only grows copies about its final size once.
//   - Keys live in one byte arena. Once dead bytes outnumber live ones the
//     arena is compacted into a kept second buffer and the two swap, so both
//     stay bounded by about twice the live key bytes.
//   - The index is open addressing over []int32 slots, hashed with
//     hash/maphash and resolved by comparing arena bytes. It holds no
//     pointer, so it costs the garbage collector no scan; tombstones left by
//     removals are cleared by rehashing in place. A steady churn of entries
//     allocates nothing (TestKeyedStoreSteadyState).
//   - Order. First and Next walk the live entries in first-seen order, and
//     Sorted lists them by key bytes. Nothing an owner emits or saves
//     depends on the hash or on slot numbers: state with an order of its own
//     saves in first-seen order, the order a load re-inserts in, and state
//     with none saves in Sorted order, the keys' bytewise order, which is
//     the order existing checkpoints list them in.
//   - One codec. SaveStore writes a store as a keyed section, a count and
//     then each entry in FirstSeen or KeyOrder order; LoadStore reads one
//     back, re-inserting the entries as listed, so a first-seen store
//     iterates as it did. The owner supplies only its value codec, and on
//     load each entry's key or that it is a legacy entry to read past. A
//     snapshot that lists a key twice is refused (ErrDuplicateKey).
package tvr

import (
	"fmt"

	"repro/internal/types"
)

// EventKind discriminates changelog events.
type EventKind uint8

const (
	// Insert adds one copy of Row to the relation.
	Insert EventKind = iota
	// Delete removes one copy of Row from the relation (a retraction).
	Delete
	// Watermark asserts that no future event will insert a row whose
	// aligned event-time column value is earlier than Wm.
	Watermark
	// Heartbeat advances processing time without changing the relation;
	// it exists so processing-time timers (EMIT AFTER DELAY) fire
	// deterministically.
	Heartbeat
)

// String returns a short name for the kind.
func (k EventKind) String() string {
	switch k {
	case Insert:
		return "INSERT"
	case Delete:
		return "DELETE"
	case Watermark:
		return "WM"
	case Heartbeat:
		return "HB"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one element of a changelog.
type Event struct {
	// Ptime is the processing time at which the event occurred. Events
	// in a changelog are ordered by non-decreasing Ptime.
	Ptime types.Time
	// Kind says what the event does.
	Kind EventKind
	// Row is the affected row for Insert and Delete events.
	Row types.Row
	// Wm is the new watermark value for Watermark events.
	Wm types.Time
}

// InsertEvent builds an Insert event.
func InsertEvent(p types.Time, row types.Row) Event {
	return Event{Ptime: p, Kind: Insert, Row: row}
}

// DeleteEvent builds a Delete (retraction) event.
func DeleteEvent(p types.Time, row types.Row) Event {
	return Event{Ptime: p, Kind: Delete, Row: row}
}

// WatermarkEvent builds a Watermark event.
func WatermarkEvent(p types.Time, wm types.Time) Event {
	return Event{Ptime: p, Kind: Watermark, Wm: wm}
}

// HeartbeatEvent builds a Heartbeat event.
func HeartbeatEvent(p types.Time) Event {
	return Event{Ptime: p, Kind: Heartbeat}
}

// IsData reports whether the event changes the relation's contents.
func (e Event) IsData() bool { return e.Kind == Insert || e.Kind == Delete }

// String renders the event compactly, e.g. "8:08 INSERT (8:07, 2, A)".
func (e Event) String() string {
	switch e.Kind {
	case Insert, Delete:
		return fmt.Sprintf("%s %s %s", e.Ptime, e.Kind, e.Row)
	case Watermark:
		return fmt.Sprintf("%s WM -> %s", e.Ptime, e.Wm)
	default:
		return fmt.Sprintf("%s HB", e.Ptime)
	}
}

// Changelog is a processing-time-ordered sequence of events encoding a TVR.
type Changelog []Event

// Validate checks the two changelog invariants: ptimes are non-decreasing and
// watermarks are monotonically non-decreasing.
func (c Changelog) Validate() error {
	lastP := types.MinTime
	lastWM := types.MinTime
	for i, e := range c {
		if e.Ptime < lastP {
			return fmt.Errorf("tvr: event %d ptime %s precedes %s", i, e.Ptime, lastP)
		}
		lastP = e.Ptime
		if e.Kind == Watermark {
			if e.Wm < lastWM {
				return fmt.Errorf("tvr: event %d watermark %s regresses from %s", i, e.Wm, lastWM)
			}
			lastWM = e.Wm
		}
	}
	return nil
}

// SnapshotAt replays the changelog through processing time p (inclusive) and
// returns the instantaneous relation — the table rendering of the TVR at p.
func (c Changelog) SnapshotAt(p types.Time) (*Relation, error) {
	rel := NewRelation()
	for _, e := range c {
		if e.Ptime > p {
			break
		}
		switch e.Kind {
		case Insert:
			rel.Insert(e.Row)
		case Delete:
			if err := rel.Delete(e.Row); err != nil {
				return nil, err
			}
		}
	}
	return rel, nil
}

// DataCount returns the number of Insert/Delete events, the "update volume"
// measure used by the materialization-delay experiments.
func (c Changelog) DataCount() int {
	n := 0
	for _, e := range c {
		if e.IsData() {
			n++
		}
	}
	return n
}
