package tvr

import (
	"fmt"

	"repro/internal/checkpoint"
)

// This file implements checkpoint encoding for the tvr containers: events and
// changelogs, instantaneous relations, and the incremental stream renderer.
// Everything encodes deterministically (keyed state is written in its
// explicit iteration order, or in key order where none is tracked) so
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

// SaveChangelog writes a length-prefixed changelog, in SaveLog's bytes.
func SaveChangelog(enc *checkpoint.Encoder, c Changelog) { SaveLog(enc, RangeOf(c)) }

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

// SaveState writes the renderer's per-group version counters in key order.
func (sr *StreamRenderer) SaveState(enc *checkpoint.Encoder) {
	enc.Section("tvr.StreamRenderer")
	SaveStore(enc, &sr.vers, KeyOrder, func(sl int32) {
		enc.String(string(sr.vers.Key(sl)))
		enc.Int(*sr.vers.At(sl))
	})
}

// LoadState rebuilds the version counters from a SaveState stream.
func (sr *StreamRenderer) LoadState(dec *checkpoint.Decoder) error {
	if err := dec.Expect("tvr.StreamRenderer"); err != nil {
		return err
	}
	return LoadStore(dec, &sr.vers, func() ([]byte, bool, error) {
		return []byte(dec.String()), true, nil
	}, func(sl int32) error {
		*sr.vers.At(sl) = dec.Int()
		return nil
	})
}
