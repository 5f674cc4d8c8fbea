package tvr

import (
	"bytes"
	"errors"
	"hash/maphash"
	"slices"

	"repro/internal/checkpoint"
)

// Store is keyed state: values of T addressed by an int32 slot and found by
// key bytes (see "Stores" in the package comment). It iterates its live
// slots in first-seen order (First, Next) or in key order (Sorted). A
// pointer from At and a slice from Key are valid until the next Insert; a
// Key slice also until the next Remove. The zero Store is empty and ready to
// use.
type Store[T any] struct {
	vals []T        // the slab: each slot's value, zero while the slot is free
	meta []slotMeta // each slot's key, hash and list links
	free int32      // head of the free-slot list, chained through next; -1 when empty
	head int32      // the first-seen list of live slots: first and last, -1 when empty
	tail int32
	live int

	arena []byte // the key bytes of every live slot, and dead ones until compaction
	spare []byte // the arena's other buffer, kept for the next compaction
	dead  int    // dead bytes in arena

	index []int32 // power-of-two table of slots, slotEmpty or slotGone
	gone  int     // tombstones in index
	seed  maphash.Seed
}

type slotMeta struct {
	hash       uint64
	off, n     int32 // the key is arena[off : off+n]
	prev, next int32
}

const (
	slotEmpty int32 = -1 // an index cell never used since the last rehash
	slotGone  int32 = -2 // a tombstone: the cell's slot was removed
)

// Len is the number of live entries.
func (s *Store[T]) Len() int { return s.live }

// At is the value in slot sl.
func (s *Store[T]) At(sl int32) *T { return &s.vals[sl] }

// Key is the key of the live slot sl.
func (s *Store[T]) Key(sl int32) []byte {
	m := &s.meta[sl]
	return s.arena[m.off : m.off+m.n : m.off+m.n]
}

// First is the first-seen live slot, -1 when the store is empty.
func (s *Store[T]) First() int32 {
	if s.live == 0 {
		return -1
	}
	return s.head
}

// Next is the live slot first seen after sl, -1 after the last.
func (s *Store[T]) Next(sl int32) int32 { return s.meta[sl].next }

// Sorted is the live slots in the bytewise order of their keys, the order
// sort.Strings gives the keys as strings. State with no order of its own is
// saved in it, so its checkpoint bytes depend on neither the hash nor the
// slots.
func (s *Store[T]) Sorted() []int32 {
	out := make([]int32, 0, s.live)
	for sl := s.First(); sl >= 0; sl = s.Next(sl) {
		out = append(out, sl)
	}
	slices.SortFunc(out, func(a, b int32) int { return bytes.Compare(s.Key(a), s.Key(b)) })
	return out
}

// Find is the slot holding key, -1 when it is absent.
func (s *Store[T]) Find(key []byte) int32 {
	if s.live == 0 {
		return -1
	}
	h := maphash.Bytes(s.seed, key)
	mask := uint64(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := s.index[i]
		if sl == slotEmpty {
			return -1
		}
		if sl >= 0 && s.meta[sl].hash == h && bytes.Equal(s.Key(sl), key) {
			return sl
		}
	}
}

// Insert adds key, which must be absent, at the end of the first-seen order
// and returns its slot, whose value is zero.
func (s *Store[T]) Insert(key []byte) int32 {
	if s.index == nil {
		s.seed = maphash.MakeSeed()
		s.free, s.head, s.tail = -1, -1, -1
	}
	if (s.live+s.gone+1)*4 > len(s.index)*3 {
		s.rehash()
	}
	sl := s.free
	if sl >= 0 {
		s.free = s.meta[sl].next
	} else {
		sl = int32(len(s.vals))
		if len(s.vals) == cap(s.vals) {
			// Double where append would grow a large slab by a quarter: a
			// store that only grows (a renderer's counter per dateTime)
			// would copy five times its final size, and the garbage lifts
			// the process's peak RSS.
			s.vals = slices.Grow(s.vals, len(s.vals)+1)
			s.meta = slices.Grow(s.meta, len(s.meta)+1)
		}
		var zero T
		s.vals = append(s.vals, zero)
		s.meta = append(s.meta, slotMeta{})
	}
	s.meta[sl] = slotMeta{
		hash: maphash.Bytes(s.seed, key),
		off:  int32(len(s.arena)),
		n:    int32(len(key)),
		prev: s.tail,
		next: -1,
	}
	if len(s.arena)+len(key) > cap(s.arena) {
		s.arena = slices.Grow(s.arena, len(s.arena)+len(key)) // doubles, as above
	}
	s.arena = append(s.arena, key...)
	if s.tail >= 0 {
		s.meta[s.tail].next = sl
	} else {
		s.head = sl
	}
	s.tail = sl
	s.live++
	s.place(sl)
	return sl
}

// place puts the live slot sl in the first free index cell of its probe
// sequence.
func (s *Store[T]) place(sl int32) {
	mask := uint64(len(s.index) - 1)
	for i := s.meta[sl].hash & mask; ; i = (i + 1) & mask {
		switch s.index[i] {
		case slotGone:
			s.gone--
			fallthrough
		case slotEmpty:
			s.index[i] = sl
			return
		}
	}
}

// Remove deletes the live slot sl: its value is zeroed and the slot is
// reused by a later Insert.
func (s *Store[T]) Remove(sl int32) {
	m := &s.meta[sl]
	mask := uint64(len(s.index) - 1)
	i := m.hash & mask
	for s.index[i] != sl {
		i = (i + 1) & mask
	}
	s.index[i] = slotGone
	s.gone++
	if m.prev >= 0 {
		s.meta[m.prev].next = m.next
	} else {
		s.head = m.next
	}
	if m.next >= 0 {
		s.meta[m.next].prev = m.prev
	} else {
		s.tail = m.prev
	}
	s.dead += int(m.n)
	*m = slotMeta{next: s.free}
	s.free = sl
	var zero T
	s.vals[sl] = zero
	s.live--
	if s.dead > len(s.arena)-s.dead {
		s.compact()
	}
}

// compact copies the live keys into the spare buffer, in first-seen order,
// and swaps the two. Its cost is amortized over the removals that made the
// dead bytes.
func (s *Store[T]) compact() {
	out := s.spare[:0]
	for sl := s.First(); sl >= 0; sl = s.Next(sl) {
		m := &s.meta[sl]
		off := int32(len(out))
		out = append(out, s.arena[m.off:m.off+m.n]...)
		m.off = off
	}
	s.arena, s.spare = out, s.arena[:0]
	s.dead = 0
}

// rehash rebuilds the index from the slots' stored hashes: in place, which
// drops the tombstones, or into a table twice the size when the live entries
// would fill more than half of it.
func (s *Store[T]) rehash() {
	size := max(len(s.index), 8)
	for (s.live+1)*2 > size {
		size *= 2
	}
	if size != len(s.index) {
		s.index = make([]int32, size)
	}
	for i := range s.index {
		s.index[i] = slotEmpty
	}
	s.gone = 0
	for sl := s.First(); sl >= 0; sl = s.Next(sl) {
		s.place(sl)
	}
}

// Order is the order SaveStore writes a store's entries in.
type Order bool

const (
	// KeyOrder is the keys' bytewise order (Sorted), for state with no
	// order of its own.
	KeyOrder Order = false
	// FirstSeen is the store's own order (First, Next), the one LoadStore
	// re-inserts in, for state whose order is part of what it emits.
	FirstSeen Order = true
)

// ErrDuplicateKey refuses a snapshot that lists one key of a keyed section
// twice (a group, a row, a join bucket, a multiset value, a version
// counter): SaveStore writes each key of a store once.
var ErrDuplicateKey = errors.New("tvr: checkpoint lists a key twice")

// SaveStore writes s as a keyed section: the number of entries, then each
// live slot's entry, in order, through save.
func SaveStore[T any](enc *checkpoint.Encoder, s *Store[T], order Order, save func(sl int32)) {
	enc.Uvarint(uint64(s.Len()))
	if order == KeyOrder {
		for _, sl := range s.Sorted() {
			save(sl)
		}
		return
	}
	for sl := s.First(); sl >= 0; sl = s.Next(sl) {
		save(sl)
	}
}

// LoadStore reads a keyed section SaveStore wrote into s. For each entry,
// key decodes what identifies it and returns its key (re-derived, where the
// entry holds the values it is derived from), or keep false for a legacy
// entry the section lists and the state no longer holds, which takes no
// slot. LoadStore refuses a key already in s with ErrDuplicateKey, inserts
// the others at the end of s's first-seen order and calls put with the new
// slot, which decodes the rest of the entry and fills its value.
func LoadStore[T any](dec *checkpoint.Decoder, s *Store[T], key func() (k []byte, keep bool, err error), put func(sl int32) error) error {
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		k, keep, err := key()
		if err == nil {
			err = dec.Err()
		}
		switch {
		case err != nil:
			return err
		case !keep:
			continue
		case s.Find(k) >= 0:
			return ErrDuplicateKey
		}
		if err := put(s.Insert(k)); err != nil {
			return err
		}
	}
	return dec.Err()
}
