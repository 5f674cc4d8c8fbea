package tvr

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/checkpoint"
)

// This file implements checkpoint encoding for the tvr containers: events and
// changelogs, instantaneous relations, and the incremental stream renderer.
// Everything encodes deterministically (map-backed state is written in its
// explicit iteration order, or sorted by key where no order is tracked) so
// that checkpointing the same state twice yields identical bytes — the
// property the golden-file format tests pin down.

// event kind wire tags — independent of the in-memory EventKind values so the
// enum can be reordered without breaking old checkpoints.
const (
	evTagInsert    byte = 'I'
	evTagDelete    byte = 'D'
	evTagWatermark byte = 'W'
	evTagHeartbeat byte = 'H'
)

// SaveEvent writes one changelog event.
func SaveEvent(enc *checkpoint.Encoder, ev Event) {
	switch ev.Kind {
	case Insert:
		enc.String(string(evTagInsert))
	case Delete:
		enc.String(string(evTagDelete))
	case Watermark:
		enc.String(string(evTagWatermark))
	default:
		enc.String(string(evTagHeartbeat))
	}
	enc.Time(ev.Ptime)
	switch ev.Kind {
	case Insert, Delete:
		enc.Row(ev.Row)
	case Watermark:
		enc.Time(ev.Wm)
	}
}

// LoadEvent reads one changelog event.
func LoadEvent(dec *checkpoint.Decoder) (Event, error) {
	tag := dec.String()
	if err := dec.Err(); err != nil {
		return Event{}, err
	}
	ev := Event{Ptime: dec.Time()}
	switch tag {
	case string(evTagInsert):
		ev.Kind = Insert
		ev.Row = dec.Row()
	case string(evTagDelete):
		ev.Kind = Delete
		ev.Row = dec.Row()
	case string(evTagWatermark):
		ev.Kind = Watermark
		ev.Wm = dec.Time()
	case string(evTagHeartbeat):
		ev.Kind = Heartbeat
	default:
		return Event{}, fmt.Errorf("tvr: unknown event tag %q in checkpoint", tag)
	}
	return ev, dec.Err()
}

// SaveChangelog writes a length-prefixed changelog.
func SaveChangelog(enc *checkpoint.Encoder, c Changelog) {
	enc.Uvarint(uint64(len(c)))
	for _, ev := range c {
		SaveEvent(enc, ev)
	}
}

// LoadChangelog reads a changelog written by SaveChangelog.
func LoadChangelog(dec *checkpoint.Decoder) (Changelog, error) {
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return nil, err
	}
	var out Changelog
	if n > 0 {
		out = make(Changelog, 0, checkpoint.CapHint(n))
	}
	for i := uint64(0); i < n; i++ {
		ev, err := LoadEvent(dec)
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// SaveState writes the relation's bag contents in iteration order. Entries
// that left the bag are not written: a row that enters again is a new entry
// at the back of the iteration order either way, so the restored relation
// iterates identically to the live one.
func (r *Relation) SaveState(enc *checkpoint.Encoder) {
	enc.Section("tvr.Relation")
	enc.Uvarint(uint64(len(r.entries)))
	for _, e := range r.order {
		if e.count == 0 {
			continue
		}
		enc.Row(e.row)
		enc.Uvarint(uint64(e.count))
	}
}

// LoadState rebuilds the relation from a SaveState stream. The receiver must
// be empty. A stream that lists one row twice is corrupt: SaveState writes
// each row once, with its multiplicity.
func (r *Relation) LoadState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("tvr.Relation"); err != nil {
		return err
	}
	n := dec.Uvarint()
	for i := uint64(0); i < n; i++ {
		row := dec.Row()
		count := int(dec.Uvarint())
		if err := dec.Err(); err != nil {
			return err
		}
		if row == nil || count <= 0 {
			return fmt.Errorf("tvr: corrupt relation entry in checkpoint")
		}
		k := row.Key()
		if _, dup := r.entries[k]; dup {
			return fmt.Errorf("tvr: duplicate relation entry %s in checkpoint", row)
		}
		r.add(&entry{key: k, row: row, count: count})
	}
	return dec.Err()
}

// SaveState writes the renderer's per-group version counters, both stores
// as one list sorted by group-key encoding, for deterministic bytes (the
// maps track no insertion order, and lookup order does not affect
// behavior). A times-store key is written as its encoding, so the bytes do
// not depend on the store a group sits in.
func (sr *StreamRenderer) SaveState(enc *checkpoint.Encoder) {
	enc.Section("tvr.StreamRenderer")
	type counter struct {
		key string
		ver int
	}
	counters := make([]counter, 0, len(sr.times)+len(sr.vers))
	for k, v := range sr.vers {
		counters = append(counters, counter{k, *v})
	}
	var buf []byte
	for k, v := range sr.times {
		buf = sr.appendTimeKey(buf[:0], k)
		counters = append(counters, counter{string(buf), v})
	}
	sort.Slice(counters, func(i, j int) bool { return counters[i].key < counters[j].key })
	enc.Uvarint(uint64(len(counters)))
	for _, c := range counters {
		enc.String(c.key)
		enc.Int(c.ver)
	}
}

// LoadState rebuilds the version counters from a SaveState stream. A key
// that is the encoding of one or two TIMESTAMPs, as many as the renderer's
// key columns, goes back to the times store; any other key, to vers.
func (sr *StreamRenderer) LoadState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("tvr.StreamRenderer"); err != nil {
		return err
	}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		k := dec.String()
		v := dec.Int()
		if tk, ok := sr.parseTimeKey(k); ok {
			sr.times[tk] = v
		} else {
			sr.vers[k] = &v
		}
	}
	return dec.Err()
}

// parseTimeKey is the times-store key whose encoding is k, if there is one.
func (sr *StreamRenderer) parseTimeKey(k string) (tk [2]int64, ok bool) {
	const width = 9 // a TIMESTAMP's key tag and big-endian payload
	if !sr.timed || len(k) != width*len(sr.keyIdxs) {
		return tk, false
	}
	for i := range sr.keyIdxs {
		tk[i] = int64(binary.BigEndian.Uint64([]byte(k[width*i+1 : width*(i+1)])))
	}
	var buf [2 * width]byte
	return tk, string(sr.appendTimeKey(buf[:0], tk)) == k
}

// SortedKeys returns the keys of a string-keyed map in sorted order — the
// deterministic-serialization helper shared by operators whose map-backed
// state tracks no insertion order.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
