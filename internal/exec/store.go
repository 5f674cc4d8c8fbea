package exec

import (
	"bytes"
	"hash/maphash"
)

// keyedStore is an operator's keyed state: values of T addressed by an int32
// slot and found by key bytes. It is built so that a steady churn of entries
// (window groups opening and closing) allocates nothing and gives the garbage
// collector nothing new to scan:
//
//   - values live in one slab; a removed entry's slot goes on a free list and
//     the next insert reuses it, so the slab never outgrows the peak number of
//     live entries;
//   - key bytes live in one arena; once dead bytes outnumber live ones the
//     arena is compacted into a second buffer, and the two swap, so both stay
//     bounded by about twice the live key bytes;
//   - the index is open addressing over []int32 slots, hashed with
//     hash/maphash and resolved by comparing arena bytes; it holds no
//     pointers, and tombstones left by removals are cleared by rehashing in
//     place;
//   - iteration (first, next) is in first-seen order: live entries are linked
//     in insertion order. No order an operator emits or saves depends on the
//     hash or on slot numbers.
//
// A pointer from at and a slice from key are valid until the next insert;
// a key slice also until the next remove. The zero store is empty and ready
// to use.
type keyedStore[T any] struct {
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

// len is the number of live entries.
func (s *keyedStore[T]) len() int { return s.live }

// at is the value in slot sl.
func (s *keyedStore[T]) at(sl int32) *T { return &s.vals[sl] }

// key is the key of the live slot sl.
func (s *keyedStore[T]) key(sl int32) []byte {
	m := &s.meta[sl]
	return s.arena[m.off : m.off+m.n : m.off+m.n]
}

// first is the first-seen live slot, -1 when the store is empty.
func (s *keyedStore[T]) first() int32 {
	if s.live == 0 {
		return -1
	}
	return s.head
}

// next is the live slot first seen after sl, -1 after the last.
func (s *keyedStore[T]) next(sl int32) int32 { return s.meta[sl].next }

// find is the slot holding key, -1 when it is absent.
func (s *keyedStore[T]) find(key []byte) int32 {
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
		if sl >= 0 && s.meta[sl].hash == h && bytes.Equal(s.key(sl), key) {
			return sl
		}
	}
}

// insert adds key, which must be absent, at the end of the first-seen order
// and returns its slot, whose value is zero.
func (s *keyedStore[T]) insert(key []byte) int32 {
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
func (s *keyedStore[T]) place(sl int32) {
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

// remove deletes the live slot sl: its value is zeroed and the slot is
// reused by a later insert.
func (s *keyedStore[T]) remove(sl int32) {
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
func (s *keyedStore[T]) compact() {
	out := s.spare[:0]
	for sl := s.first(); sl >= 0; sl = s.next(sl) {
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
func (s *keyedStore[T]) rehash() {
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
	for sl := s.first(); sl >= 0; sl = s.next(sl) {
		s.place(sl)
	}
}
