package tvr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

// logRows is a small set of rows the log tests share, so a long log costs
// its events and not their rows.
var logRows = func() []types.Row {
	rows := make([]types.Row, 16)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString("abcdefgh")}
	}
	return rows
}()

// flat is the events of r as a fresh slice, nil when r is empty.
func flat(r Range[Event]) Changelog {
	if r.Len() == 0 {
		return nil
	}
	return append(Changelog(nil), r.Flat()...)
}

// sameEvents fails unless got holds exactly want's events: the same ptimes
// and the very rows, since the log copies events and never their rows.
func sameEvents(t *testing.T, what string, got Range[Event], want Changelog) {
	t.Helper()
	g := flat(got)
	same := got.Len() == len(want) && len(g) == len(want)
	for i := 0; same && i < len(g); i++ {
		same = g[i].Ptime == want[i].Ptime && g[i].Kind == want[i].Kind && &g[i].Row[0] == &want[i].Row[0]
	}
	if !same {
		t.Fatalf("%s: got %d events, want %d", what, got.Len(), len(want))
	}
}

// encoded is what SaveLog writes for r.
func encoded(t *testing.T, save func(*checkpoint.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	save(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLogMatchesSliceModel drives a Log and a plain slice through random
// commits (each staged in one or more pieces, then published, so chunk
// boundaries fall inside commits and between them), trims, and reads. Every
// Staged, Since, Slice, At and Cut must equal the slice's, TrimBelow must
// leave only the chunks the retained positions reach, and SaveLog must write
// SaveChangelog's bytes for the same events, which LoadLog reads back.
func TestLogMatchesSliceModel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l Log[Event]
		var hist Changelog // every event published
		base := 0
		clock := types.Time(0)
		for op := 0; op < 60; op++ {
			where := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := rng.Intn(10); {
			case k < 5: // a commit, staged in pieces
				var staged Changelog
				size := rng.Intn(40)
				if rng.Intn(3) == 0 {
					size = rng.Intn(3 * ChunkLen)
				}
				for size > 0 {
					piece := min(size, 1+rng.Intn(2*ChunkLen))
					size -= piece
					evs := make(Changelog, piece)
					for i := range evs {
						clock += types.Time(rng.Intn(2))
						evs[i] = InsertEvent(clock, logRows[rng.Intn(len(logRows))])
					}
					l.Stage(evs...)
					staged = append(staged, evs...)
					sameEvents(t, where+" staged", l.Staged(), staged)
				}
				if l.End() != len(hist) {
					t.Fatalf("%s: staging moved the end to %d, want %d", where, l.End(), len(hist))
				}
				l.Publish()
				hist = append(hist, staged...)
				if l.Staged().Len() != 0 {
					t.Fatalf("%s: %d events staged after Publish", where, l.Staged().Len())
				}
			case k < 6: // a trim
				pos := base + rng.Intn(len(hist)-base+1)
				l.TrimBelow(pos)
				base = max(base, pos)
			case k < 9: // reads
				pos := base + rng.Intn(len(hist)-base+1)
				r := l.Since(pos)
				sameEvents(t, where+" since", r, hist[pos:])
				i := rng.Intn(r.Len() + 1)
				j := i + rng.Intn(r.Len()-i+1)
				sameEvents(t, fmt.Sprintf("%s slice [%d,%d)", where, i, j), r.Slice(i, j), hist[pos+i:pos+j])
				if pos < len(hist) {
					if got := l.At(pos); !reflect.DeepEqual(got, hist[pos]) {
						t.Fatalf("%s: At(%d) = %v, want %v", where, pos, got, hist[pos])
					}
				}
				at := types.Time(rng.Intn(int(clock) + 2))
				n := pos
				for n < len(hist) && hist[n].Ptime <= at {
					n++
				}
				sameEvents(t, fmt.Sprintf("%s cut at %v", where, at), Cut(r, at), hist[pos:n])
			default: // a save and a load
				saved := encoded(t, func(enc *checkpoint.Encoder) { SaveLog(enc, l.Since(base)) })
				if want := encoded(t, func(enc *checkpoint.Encoder) { SaveChangelog(enc, hist[base:]) }); !bytes.Equal(saved, want) {
					t.Fatalf("%s: SaveLog wrote %d bytes unlike SaveChangelog's %d", where, len(saved), len(want))
				}
				dec, err := checkpoint.NewDecoder(bytes.NewReader(saved))
				if err != nil {
					t.Fatal(err)
				}
				var loaded Log[Event]
				if err := LoadLog(dec, &loaded); err != nil {
					t.Fatalf("%s: load: %v", where, err)
				}
				loaded.Publish()
				if got := flat(loaded.Since(0)); len(got)+len(hist[base:]) > 0 && !reflect.DeepEqual(got, hist[base:]) {
					t.Fatalf("%s: loaded %d events unlike the %d saved", where, len(got), len(hist)-base)
				}
			}
			if l.Base() != base || l.End() != len(hist) || l.Len() != len(hist)-base {
				t.Fatalf("%s: base %d end %d len %d, want %d %d %d", where, l.Base(), l.End(), l.Len(), base, len(hist), len(hist)-base)
			}
			if want := (len(hist)+ChunkLen-1)/ChunkLen - base/ChunkLen; len(l.chunks) != want {
				t.Fatalf("%s: %d chunks held for positions [%d, %d), want %d", where, len(l.chunks), base, len(hist), want)
			}
		}
	}
}

// TestLogRangeSurvivesAppendsAndTrims: a range captured from a log holds the
// same events however the log grows and trims afterwards, which is what lets
// a reader walk it without the log's lock.
func TestLogRangeSurvivesAppendsAndTrims(t *testing.T) {
	var l Log[Event]
	var hist Changelog
	for i := 0; i < 3*ChunkLen+7; i++ {
		ev := InsertEvent(types.Time(i), logRows[i%len(logRows)])
		l.Append(ev)
		hist = append(hist, ev)
	}
	r := l.Since(ChunkLen / 2)
	want := append(Changelog(nil), hist[ChunkLen/2:]...)
	for i := 0; i < 2*ChunkLen; i++ {
		l.Append(InsertEvent(types.Time(4*ChunkLen+i), logRows[0]))
	}
	l.TrimBelow(l.End())
	sameEvents(t, "the captured range", r, want)
}

// TestLogConcurrentReaders is the log's concurrency contract under the race
// detector: one goroutine stages without the owner's lock and publishes
// under it, while others capture ranges and trim under the lock and walk
// what they captured without it. Every walk must see the events its range
// was captured with, in order.
func TestLogConcurrentReaders(t *testing.T) {
	const n = 6 * ChunkLen
	var mu sync.Mutex
	var l Log[Event]
	var wg sync.WaitGroup
	done := make(chan struct{})
	walk := func(trim bool) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			mu.Lock()
			from := l.Base()
			r := l.Since(from)
			if trim && l.Len() > ChunkLen {
				l.TrimBelow(l.End() - ChunkLen/2)
			}
			mu.Unlock()
			for want := types.Time(from); r.Len() > 0; {
				var evs []Event
				evs, r = r.Next()
				for _, ev := range evs {
					if ev.Ptime != want {
						t.Errorf("walked ptime %v, want %v", ev.Ptime, want)
						return
					}
					want++
				}
			}
		}
	}
	wg.Add(2)
	go walk(false)
	go walk(true)
	for i := 0; i < n; i += 300 {
		evs := make(Changelog, 300)
		for j := range evs {
			evs[j] = InsertEvent(types.Time(i+j), logRows[0])
		}
		l.Stage(evs[:100]...)
		l.Stage(evs[100:]...)
		mu.Lock()
		l.Publish()
		mu.Unlock()
	}
	close(done)
	wg.Wait()
}

// TestLogAppendAllocs: appending N events in 500-event commits allocates the
// chunks that hold them and little else, at most 1.1 x N x sizeof(Event)
// bytes, where a slice that regrows by doubling copies its history again at
// every doubling. No element is ever copied twice.
func TestLogAppendAllocs(t *testing.T) {
	const n, batch = 20 * ChunkLen, 500
	evs := make(Changelog, n)
	for i := range evs {
		evs[i] = InsertEvent(types.Time(i), logRows[i%len(logRows)])
	}
	var l Log[Event]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for off := 0; off < n; off += batch {
		l.Append(evs[off:min(off+batch, n)]...)
	}
	runtime.ReadMemStats(&after)
	size := float64(unsafe.Sizeof(Event{}))
	got := float64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("appending %d events allocated %.0f bytes, %.3f x N x sizeof(Event)", n, got, got/(n*size))
	if got > 1.1*n*size {
		t.Fatalf("appending %d events allocated %.0f bytes, more than 1.1 x %d x %.0f", n, got, n, size)
	}
	if l.Len() != n {
		t.Fatalf("log holds %d events, want %d", l.Len(), n)
	}
}

// BenchmarkLogAppend appends 500-event commits and trims what it appended, a
// capped output's shape: B/op is the chunk allocation per commit, about
// 500 x sizeof(Event), and allocs/op the share of a chunk per commit.
func BenchmarkLogAppend(b *testing.B) {
	evs := make(Changelog, 500)
	for i := range evs {
		evs[i] = InsertEvent(types.Time(i), logRows[i%len(logRows)])
	}
	var l Log[Event]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(evs...)
		l.TrimBelow(l.End())
	}
}
