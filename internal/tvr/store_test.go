package tvr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/checkpoint"
)

// storeModel is what a Store must behave like: a map from key to value
// plus the order the live keys were first seen in.
type storeModel struct {
	vals  map[string]int
	order []string
}

func (m *storeModel) remove(k string) {
	delete(m.vals, k)
	m.order = slices.DeleteFunc(m.order, func(o string) bool { return o == k })
}

// storeKeys is the store's live keys in its first-seen order.
func storeKeys(s *Store[int]) []string {
	var out []string
	for sl := s.First(); sl >= 0; sl = s.Next(sl) {
		out = append(out, string(s.Key(sl)))
	}
	return out
}

// reloadStore saves s through SaveStore in order and loads the bytes
// through LoadStore into a fresh store, as an operator's SaveState and
// LoadState do. The entries whose value drop names are read past at load,
// as legacy entries are; a nil drop keeps them all.
func reloadStore(t *testing.T, s *Store[int], order Order, drop func(v int) bool) *Store[int] {
	t.Helper()
	saved := saveBytes(t, func(enc *checkpoint.Encoder) {
		SaveStore(enc, s, order, func(sl int32) {
			enc.String(string(s.Key(sl)))
			enc.Int(*s.At(sl))
		})
	})
	dec := openBytes(t, saved)
	var out Store[int]
	var v int
	err := LoadStore(dec, &out, func() ([]byte, bool, error) {
		k := []byte(dec.String())
		v = dec.Int()
		return k, drop == nil || !drop(v), nil
	}, func(sl int32) error {
		*out.At(sl) = v
		return nil
	})
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	return &out
}

// reloadDuplicate loads a section listing s's entries in first-seen order
// and then its first key again, and returns LoadStore's error.
func reloadDuplicate(t *testing.T, s *Store[int]) error {
	t.Helper()
	saved := saveBytes(t, func(enc *checkpoint.Encoder) {
		enc.Uvarint(uint64(s.Len() + 1))
		for sl := s.First(); sl >= 0; sl = s.Next(sl) {
			enc.String(string(s.Key(sl)))
		}
		enc.String(string(s.Key(s.First())))
	})
	dec := openBytes(t, saved)
	var out Store[int]
	return LoadStore(dec, &out, func() ([]byte, bool, error) {
		return []byte(dec.String()), true, nil
	}, func(int32) error { return nil })
}

// TestKeyedStoreMatchesMap drives a Store and a map[string]int model
// through random inserts, finds and removes over a small key alphabet (keys
// of 0 to 40 bytes, the empty key among them), so that slots are reused,
// the arena compacts and the index grows. After every step the store must
// find exactly the model's keys with their values and iterate them in
// first-seen order; its slab never outgrows the peak number of live keys,
// and its arena never holds more dead bytes than live ones. Every few steps
// Sorted must list the model's keys in sort order, and the store must
// round-trip through SaveStore and LoadStore (reloadStore) in both orders:
// the copy holds the same keys and values and iterates in the order saved,
// an entry dropped at load leaves no slot behind, and a section listing a
// key twice is refused with ErrDuplicateKey. The test continues on a
// first-seen copy half of the time. A directed phase then makes the index
// rehash in place past its tombstones.
func TestKeyedStoreMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var reused, compactions, inPlace, grown int
	for trial := 0; trial < 40; trial++ {
		alphabet := make([]string, 1+rng.Intn(300))
		for i := range alphabet {
			b := make([]byte, rng.Intn(41))
			rng.Read(b)
			alphabet[i] = string(b)
		}
		s := &Store[int]{}
		m := &storeModel{vals: map[string]int{}}
		peak := 0
		removeOdds := 1 + rng.Intn(3) // in 5, when the key is live
		for step := 0; step < 2000; step++ {
			k := alphabet[rng.Intn(len(alphabet))]
			_, present := m.vals[k]
			switch {
			case present && rng.Intn(5) < removeOdds:
				sl := s.Find([]byte(k))
				if sl < 0 {
					t.Fatalf("trial %d step %d: find(%q) missed a live key", trial, step, k)
				}
				deadBefore, arenaBefore := s.dead, len(s.arena)
				s.Remove(sl)
				m.remove(k)
				if s.dead == 0 && deadBefore+len(k) > 0 && len(s.arena) < arenaBefore {
					compactions++
				}
			case !present:
				freeBefore, size := s.free, len(s.index)
				due := size > 0 && (s.live+s.gone+1)*4 > size*3 // insert rehashes first
				sl := s.Insert([]byte(k))
				if *s.At(sl) != 0 {
					t.Fatalf("trial %d step %d: a new slot holds %d, want the zero value", trial, step, *s.At(sl))
				}
				if freeBefore >= 0 && sl == freeBefore {
					reused++
				}
				switch {
				case due && len(s.index) != size:
					grown++
				case due:
					inPlace++
				}
				v := rng.Int()
				*s.At(sl) = v
				m.vals[k] = v
				m.order = append(m.order, k)
			default:
				sl := s.Find([]byte(k))
				if sl < 0 || *s.At(sl) != m.vals[k] {
					t.Fatalf("trial %d step %d: find(%q) = slot %d, want the value %d", trial, step, k, sl, m.vals[k])
				}
				*s.At(sl) = rng.Int()
				m.vals[k] = *s.At(sl)
			}
			peak = max(peak, len(m.vals))

			if s.Len() != len(m.vals) {
				t.Fatalf("trial %d step %d: len %d, model %d", trial, step, s.Len(), len(m.vals))
			}
			if got := storeKeys(s); !slices.Equal(got, m.order) {
				t.Fatalf("trial %d step %d: iterates %q, first-seen order is %q", trial, step, got, m.order)
			}
			for _, probe := range alphabet[:min(len(alphabet), 8)] {
				sl := s.Find([]byte(probe))
				v, ok := m.vals[probe]
				if (sl >= 0) != ok || ok && *s.At(sl) != v {
					t.Fatalf("trial %d step %d: find(%q) = slot %d, model has it: %v", trial, step, probe, sl, ok)
				}
			}
			if len(s.vals) > peak {
				t.Fatalf("trial %d step %d: %d slots for a peak of %d live keys", trial, step, len(s.vals), peak)
			}
			if s.dead > len(s.arena)-s.dead {
				t.Fatalf("trial %d step %d: %d dead arena bytes beside %d live", trial, step, s.dead, len(s.arena)-s.dead)
			}
			if step%97 == 0 {
				var sorted []string
				for _, sl := range s.Sorted() {
					sorted = append(sorted, string(s.Key(sl)))
				}
				want := slices.Clone(m.order)
				slices.Sort(want)
				if !slices.Equal(sorted, want) {
					t.Fatalf("trial %d step %d: Sorted lists %q, want %q", trial, step, sorted, want)
				}
				legacy := func(v int) bool { return v%4 == 0 }
				for _, order := range []Order{FirstSeen, KeyOrder} {
					var want []string
					for _, k := range map[Order][]string{FirstSeen: m.order, KeyOrder: sorted}[order] {
						if !legacy(m.vals[k]) {
							want = append(want, k)
						}
					}
					loaded := reloadStore(t, s, order, legacy)
					if got := storeKeys(loaded); !slices.Equal(got, want) {
						t.Fatalf("trial %d step %d: reloaded in order %v, the store iterates %q, want %q", trial, step, order, got, want)
					}
					if len(loaded.vals) != loaded.Len() {
						t.Fatalf("trial %d step %d: %d slots for %d loaded entries", trial, step, len(loaded.vals), loaded.Len())
					}
					for k, v := range m.vals {
						if sl := loaded.Find([]byte(k)); (sl >= 0) == legacy(v) || sl >= 0 && *loaded.At(sl) != v {
							t.Fatalf("trial %d step %d: reloaded in order %v, find(%q) = slot %d, want the value %d unless dropped", trial, step, order, k, sl, v)
						}
					}
				}
				if s.Len() > 0 {
					if err := reloadDuplicate(t, s); !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("trial %d step %d: a section listing a key twice loaded with error %v", trial, step, err)
					}
				}
				loaded := reloadStore(t, s, FirstSeen, nil)
				if got := storeKeys(loaded); !slices.Equal(got, m.order) {
					t.Fatalf("trial %d step %d: a reloaded store iterates %q, want %q", trial, step, got, m.order)
				}
				for k, v := range m.vals {
					if sl := loaded.Find([]byte(k)); sl < 0 || *loaded.At(sl) != v {
						t.Fatalf("trial %d step %d: the reloaded store lost %q", trial, step, k)
					}
				}
				if rng.Intn(2) == 0 {
					s = loaded
				}
			}
		}
	}
	// Whether the random steps rehash in place depends on the hash seed,
	// which each store draws afresh. So a directed phase reaches it for
	// any seed: with one key live, every insert of a fresh key followed by
	// its removal leaves the tombstones as many or one more, until an
	// insert finds the table full of them and rehashes it in place.
	s := &Store[int]{}
	s.Insert([]byte("kept"))
	for i := 0; inPlace == 0; i++ {
		if i == 1000 {
			t.Fatalf("1000 insert-remove rounds beside one live key never rehashed in place")
		}
		key := []byte(fmt.Sprint(i))
		size := len(s.index)
		due := (s.live+s.gone+1)*4 > size*3
		s.Remove(s.Insert(key))
		if due && len(s.index) == size {
			inPlace++
		}
		if got := storeKeys(s); !slices.Equal(got, []string{"kept"}) {
			t.Fatalf("round %d: the store holds %q, want only the kept key", i, got)
		}
	}
	t.Logf("%d slot reuses, %d arena compactions, %d in-place rehashes, %d growths", reused, compactions, inPlace, grown)
	if reused == 0 || compactions == 0 || grown == 0 {
		t.Fatalf("the generator must reach slot reuse, compaction and growth")
	}
}

// churnKey encodes group i's key: 12 to 28 bytes, as window-group keys run.
func churnKey(buf []byte, i int) []byte {
	buf = binary.BigEndian.AppendUint64(buf[:0], uint64(i))
	for j := 0; j < 4+i%17; j++ {
		buf = append(buf, byte(i+j))
	}
	return buf
}

// TestKeyedStoreSteadyState pins the store's reason to exist: a steady churn
// of groups allocates nothing. 100k groups open and close, at most 1,000 open
// at once (each closes 1,000 groups after it opened). After a warm-up of
// 10k groups the rest allocate 0 bytes, and the slab, the arena's two
// buffers and the index stay at the size the peak of open groups needs.
func TestKeyedStoreSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const total, open, warm = 100_000, 1_000, 10_000
	var s Store[int]
	slots := make([]int32, total)
	var key []byte
	step := func(i int) {
		if i >= open {
			key = churnKey(key, i-open)
			s.Remove(s.Find(key))
		}
		key = churnKey(key, i)
		slots[i] = s.Insert(key)
		*s.At(slots[i]) = i
	}
	for i := 0; i < warm; i++ {
		step(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < total; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Fatalf("%d group lives after warm-up allocated %d bytes in %d allocations, want 0",
			total-warm, got, after.Mallocs-before.Mallocs)
	}
	const maxKey = 8 + 4 + 16
	t.Logf("%d slots, arena %d + %d bytes, index %d cells for %d open groups", len(s.vals), cap(s.arena), cap(s.spare), len(s.index), open)
	if s.Len() != open || len(s.vals) != open {
		t.Fatalf("%d groups open in %d slots, want %d in %d", s.Len(), len(s.vals), open, open)
	}
	if a := cap(s.arena) + cap(s.spare); a > 6*open*maxKey {
		t.Fatalf("the arena's buffers hold %d bytes for %d open keys of at most %d bytes", a, open, maxKey)
	}
	if len(s.index) > 4*open {
		t.Fatalf("the index has %d cells for %d open groups", len(s.index), open)
	}
	for i := total - open; i < total; i++ {
		if sl := s.Find(churnKey(key, i)); sl != slots[i] || *s.At(sl) != i {
			t.Fatalf("group %d: find = slot %d holding %d, want slot %d", i, sl, *s.At(sl), slots[i])
		}
	}
}

// BenchmarkKeyedStore is one group's life in a steady churn of 1,000 open
// groups: open one (insert), find it, close the oldest (remove). It
// allocates nothing per op.
func BenchmarkKeyedStore(b *testing.B) {
	const open = 1_000
	var s Store[int]
	var key []byte
	for i := 0; i < open; i++ {
		s.Insert(churnKey(key, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := open; i < open+b.N; i++ {
		key = churnKey(key, i)
		*s.At(s.Insert(key)) = i
		if s.Find(key) < 0 {
			b.Fatalf("group %d not found", i)
		}
		s.Remove(s.Find(churnKey(key, i-open)))
	}
}
