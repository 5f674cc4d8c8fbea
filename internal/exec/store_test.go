package exec

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// storeModel is what a keyedStore must behave like: a map from key to value
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
func storeKeys(s *keyedStore[int]) []string {
	var out []string
	for sl := s.first(); sl >= 0; sl = s.next(sl) {
		out = append(out, string(s.key(sl)))
	}
	return out
}

// reloadStore is a fresh store holding s's entries, inserted in s's
// first-seen order: what an operator's LoadState builds from what its
// SaveState wrote.
func reloadStore(s *keyedStore[int]) *keyedStore[int] {
	var out keyedStore[int]
	for sl := s.first(); sl >= 0; sl = s.next(sl) {
		*out.at(out.insert(s.key(sl))) = *s.at(sl)
	}
	return &out
}

// TestKeyedStoreMatchesMap drives a keyedStore and a map[string]int model
// through random inserts, finds and removes over a small key alphabet (keys
// of 0 to 40 bytes, the empty key among them), so that slots are reused,
// the arena compacts and the index rehashes in place past its tombstones as
// well as grows. After every step the store must find exactly the model's
// keys with their values and iterate them in first-seen order; its slab
// never outgrows the peak number of live keys, and its arena never holds
// more dead bytes than live ones. Every few steps the test saves and loads
// the store (reloadStore) and continues on the copy half of the time.
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
		s := &keyedStore[int]{}
		m := &storeModel{vals: map[string]int{}}
		peak := 0
		removeOdds := 1 + rng.Intn(3) // in 5, when the key is live
		for step := 0; step < 2000; step++ {
			k := alphabet[rng.Intn(len(alphabet))]
			_, present := m.vals[k]
			switch {
			case present && rng.Intn(5) < removeOdds:
				sl := s.find([]byte(k))
				if sl < 0 {
					t.Fatalf("trial %d step %d: find(%q) missed a live key", trial, step, k)
				}
				deadBefore, arenaBefore := s.dead, len(s.arena)
				s.remove(sl)
				m.remove(k)
				if s.dead == 0 && deadBefore+len(k) > 0 && len(s.arena) < arenaBefore {
					compactions++
				}
			case !present:
				freeBefore, size := s.free, len(s.index)
				due := size > 0 && (s.live+s.gone+1)*4 > size*3 // insert rehashes first
				sl := s.insert([]byte(k))
				if *s.at(sl) != 0 {
					t.Fatalf("trial %d step %d: a new slot holds %d, want the zero value", trial, step, *s.at(sl))
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
				*s.at(sl) = v
				m.vals[k] = v
				m.order = append(m.order, k)
			default:
				sl := s.find([]byte(k))
				if sl < 0 || *s.at(sl) != m.vals[k] {
					t.Fatalf("trial %d step %d: find(%q) = slot %d, want the value %d", trial, step, k, sl, m.vals[k])
				}
				*s.at(sl) = rng.Int()
				m.vals[k] = *s.at(sl)
			}
			peak = max(peak, len(m.vals))

			if s.len() != len(m.vals) {
				t.Fatalf("trial %d step %d: len %d, model %d", trial, step, s.len(), len(m.vals))
			}
			if got := storeKeys(s); !slices.Equal(got, m.order) {
				t.Fatalf("trial %d step %d: iterates %q, first-seen order is %q", trial, step, got, m.order)
			}
			for _, probe := range alphabet[:min(len(alphabet), 8)] {
				sl := s.find([]byte(probe))
				v, ok := m.vals[probe]
				if (sl >= 0) != ok || ok && *s.at(sl) != v {
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
				loaded := reloadStore(s)
				if got := storeKeys(loaded); !slices.Equal(got, m.order) {
					t.Fatalf("trial %d step %d: a reloaded store iterates %q, want %q", trial, step, got, m.order)
				}
				for k, v := range m.vals {
					if sl := loaded.find([]byte(k)); sl < 0 || *loaded.at(sl) != v {
						t.Fatalf("trial %d step %d: the reloaded store lost %q", trial, step, k)
					}
				}
				if rng.Intn(2) == 0 {
					s = loaded
				}
			}
		}
	}
	t.Logf("%d slot reuses, %d arena compactions, %d in-place rehashes, %d growths", reused, compactions, inPlace, grown)
	if reused == 0 || compactions == 0 || inPlace == 0 || grown == 0 {
		t.Fatalf("the generator must reach slot reuse, compaction and both rehashes")
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
	var s keyedStore[int]
	slots := make([]int32, total)
	var key []byte
	step := func(i int) {
		if i >= open {
			key = churnKey(key, i-open)
			s.remove(s.find(key))
		}
		key = churnKey(key, i)
		slots[i] = s.insert(key)
		*s.at(slots[i]) = i
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
	if s.len() != open || len(s.vals) != open {
		t.Fatalf("%d groups open in %d slots, want %d in %d", s.len(), len(s.vals), open, open)
	}
	if a := cap(s.arena) + cap(s.spare); a > 6*open*maxKey {
		t.Fatalf("the arena's buffers hold %d bytes for %d open keys of at most %d bytes", a, open, maxKey)
	}
	if len(s.index) > 4*open {
		t.Fatalf("the index has %d cells for %d open groups", len(s.index), open)
	}
	for i := total - open; i < total; i++ {
		if sl := s.find(churnKey(key, i)); sl != slots[i] || *s.at(sl) != i {
			t.Fatalf("group %d: find = slot %d holding %d, want slot %d", i, sl, *s.at(sl), slots[i])
		}
	}
}

// BenchmarkKeyedStore is one group's life in a steady churn of 1,000 open
// groups: open one (insert), find it, close the oldest (remove). It
// allocates nothing per op.
func BenchmarkKeyedStore(b *testing.B) {
	const open = 1_000
	var s keyedStore[int]
	var key []byte
	for i := 0; i < open; i++ {
		s.insert(churnKey(key, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := open; i < open+b.N; i++ {
		key = churnKey(key, i)
		*s.at(s.insert(key)) = i
		if s.find(key) < 0 {
			b.Fatalf("group %d not found", i)
		}
		s.remove(s.find(churnKey(key, i-open)))
	}
}
