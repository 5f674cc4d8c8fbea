package tvr

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

// refRenderer versions rows the plain way: one counter per group, keyed by
// the group's key encoding. StreamRenderer must match it in versions and in
// checkpoint bytes, whichever store a group lands in.
type refRenderer struct {
	keyIdxs []int
	vers    map[string]int
}

func newRefRenderer(keyIdxs []int) *refRenderer {
	return &refRenderer{keyIdxs: keyIdxs, vers: map[string]int{}}
}

func (r *refRenderer) versions(c Changelog) []int {
	out := make([]int, 0, len(c))
	for _, e := range c {
		v := 0
		if e.IsData() {
			k := string(e.Row.AppendKeyOf(nil, r.keyIdxs))
			v = r.vers[k]
			r.vers[k] = v + 1
		}
		out = append(out, v)
	}
	return out
}

func (r *refRenderer) save(enc *checkpoint.Encoder) {
	enc.Section("tvr.StreamRenderer")
	keys := make([]string, 0, len(r.vers))
	for k := range r.vers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	enc.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		enc.String(k)
		enc.Int(r.vers[k])
	}
}

func (r *refRenderer) load(dec *checkpoint.Decoder) error {
	if err := dec.Expect("tvr.StreamRenderer"); err != nil {
		return err
	}
	for n := dec.Uvarint(); n > 0 && dec.Err() == nil; n-- {
		k := dec.String()
		r.vers[k] = dec.Int()
	}
	return dec.Err()
}

// versioner is either renderer behind one interface, so the property test
// can continue any of them the same way.
type versioner interface {
	versions(rng *rand.Rand, c Changelog) []int
	save(t *testing.T) []byte
}

type refVersioner struct{ *refRenderer }

func (r refVersioner) versions(_ *rand.Rand, c Changelog) []int { return r.refRenderer.versions(c) }
func (r refVersioner) save(t *testing.T) []byte {
	return saveBytes(t, r.refRenderer.save)
}

type liveVersioner struct{ *StreamRenderer }

// versions renders c in random chunks, each through Append or through
// AppendVersions.
func (r liveVersioner) versions(rng *rand.Rand, c Changelog) []int {
	out := []int{}
	for len(c) > 0 {
		n := 1 + rng.Intn(len(c))
		chunk := c[:n]
		c = c[n:]
		if rng.Intn(2) == 0 {
			out = r.AppendVersions(out, chunk)
			continue
		}
		rows := r.Append(chunk)
		for _, e := range chunk {
			v := 0
			if e.IsData() {
				v, rows = rows[0].Ver, rows[1:]
			}
			out = append(out, v)
		}
	}
	return out
}

func (r liveVersioner) save(t *testing.T) []byte { return saveBytes(t, r.SaveState) }

func saveBytes(t *testing.T, save func(*checkpoint.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	save(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openBytes(t *testing.T, b []byte) *checkpoint.Decoder {
	t.Helper()
	dec, err := checkpoint.NewDecoder(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// renderCase is a random changelog over four columns and the emit-key
// columns that group it.
type renderCase struct {
	keyIdxs []int
	log     Changelog
}

// randomRenderCase draws 0 to 3 key columns and a changelog whose key values
// repeat often: TIMESTAMPs from a pool holding negative, zero and
// MinTime/MaxTime-adjacent instants, and, unless the case is timestamps
// only, NULLs, BIGINTs (some numerically equal to a pooled timestamp) and
// VARCHARs.
func randomRenderCase(rng *rand.Rand) renderCase {
	times := []types.Time{types.MinTime, types.MinTime + 1, -1 << 40, -60000, -1, 0, 1, 60000, 1 << 40, types.MaxTime - 1, types.MaxTime}
	onlyTimes := rng.Intn(2) == 0
	value := func() types.Value {
		t := times[rng.Intn(len(times))]
		if onlyTimes {
			return types.NewTimestamp(t)
		}
		switch rng.Intn(8) {
		case 0:
			return types.Null()
		case 1:
			return types.NewInt(int64(t))
		case 2:
			return types.NewString(fmt.Sprint(rng.Intn(3)))
		}
		return types.NewTimestamp(t)
	}
	c := renderCase{keyIdxs: rng.Perm(4)[:rng.Intn(4)]}
	for i, n := 0, rng.Intn(200); i < n; i++ {
		ptime := types.Time(i)
		switch rng.Intn(10) {
		case 0:
			c.log = append(c.log, WatermarkEvent(ptime, ptime))
		case 1:
			c.log = append(c.log, HeartbeatEvent(ptime))
		default:
			row := types.Row{value(), value(), value(), value()}
			if rng.Intn(3) == 0 {
				c.log = append(c.log, DeleteEvent(ptime, row))
			} else {
				c.log = append(c.log, InsertEvent(ptime, row))
			}
		}
	}
	return c
}

// TestStreamRendererMatchesReference renders random changelogs through the
// renderer, in random Append/AppendVersions chunks, and through refRenderer:
// the versions and the saved bytes must be identical at a random split, and
// a state saved by either must load into the other and continue exactly as
// both originals do.
func TestStreamRendererMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	timed, byKey := 0, 0
	for iter := 0; iter < 500; iter++ {
		c := randomRenderCase(rng)
		split := rng.Intn(len(c.log) + 1)
		head, tail := c.log[:split], c.log[split:]
		where := fmt.Sprintf("case %d (keys %v, split %d of %d)", iter, c.keyIdxs, split, len(c.log))

		live := liveVersioner{NewStreamRenderer(c.keyIdxs)}
		ref := refVersioner{newRefRenderer(c.keyIdxs)}
		if got, want := live.versions(rng, head), ref.versions(rng, head); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: versions %v, want %v", where, got, want)
		}
		liveSaved, refSaved := live.save(t), ref.save(t)
		if !bytes.Equal(liveSaved, refSaved) {
			t.Fatalf("%s: saved bytes differ from the reference's", where)
		}

		fromRef := liveVersioner{NewStreamRenderer(c.keyIdxs)}
		if err := fromRef.LoadState(openBytes(t, refSaved)); err != nil {
			t.Fatalf("%s: load reference state: %v", where, err)
		}
		fromLive := refVersioner{newRefRenderer(c.keyIdxs)}
		if err := fromLive.load(openBytes(t, liveSaved)); err != nil {
			t.Fatalf("%s: reference load: %v", where, err)
		}
		want := ref.versions(rng, tail)
		wantSaved := ref.save(t)
		for _, v := range []struct {
			name string
			versioner
		}{{"renderer", live}, {"renderer loaded from reference", fromRef}, {"reference loaded from renderer", fromLive}} {
			if got := v.versions(rng, tail); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s continued with versions %v, want %v", where, v.name, got, want)
			}
			if !bytes.Equal(v.save(t), wantSaved) {
				t.Fatalf("%s: %s saved different bytes after continuing", where, v.name)
			}
		}
		if got, want := live.Groups(), len(ref.vers); got != want {
			t.Fatalf("%s: Groups() = %d, want %d", where, got, want)
		}
		if len(fromRef.times) != len(live.times) || len(fromRef.vers) != len(live.vers) {
			t.Fatalf("%s: a loaded renderer holds %d+%d groups in its stores, the original %d+%d",
				where, len(fromRef.times), len(fromRef.vers), len(live.times), len(live.vers))
		}
		timed += len(live.times)
		byKey += len(live.vers)
	}
	if timed == 0 || byKey == 0 {
		t.Fatalf("the cases put %d groups in the times store and %d in vers; both must be exercised", timed, byKey)
	}
}

// distinctTimeRows is n insert events, each of a group of its own: Q1's
// shape, whose emit key is the row's dateTime.
func distinctTimeRows(n int) Changelog {
	c := make(Changelog, n)
	for i := range c {
		t := types.Time(i) * types.Time(types.Second)
		c[i] = InsertEvent(t, types.Row{types.NewInt(int64(i)), types.NewTimestamp(t)})
	}
	return c
}

// TestStreamRendererAllocs pins the times store: versioning 10k rows whose
// emit key is a distinct TIMESTAMP each allocates only when the map grows,
// not a key and a counter per group.
func TestStreamRendererAllocs(t *testing.T) {
	const n = 10_000
	c := distinctTimeRows(n)
	dst := make([]int, 0, n)
	allocs := testing.AllocsPerRun(5, func() {
		dst = NewStreamRenderer([]int{1}).AppendVersions(dst[:0], c)
	})
	t.Logf("%.0f allocations for %d rows (%.4f per row)", allocs, n, allocs/n)
	if perRow := allocs / n; perRow >= 0.1 {
		t.Fatalf("%.3f allocations per row, want < 0.1", perRow)
	}
}

// BenchmarkStreamRender versions rows with a distinct TIMESTAMP emit key
// each, through a renderer that lives across iterations, so the groups keep
// growing as a long-running Q1 session's do. It reports ns/row and
// allocs/row.
func BenchmarkStreamRender(b *testing.B) {
	const batch = 500
	c := distinctTimeRows(batch)
	r := NewStreamRenderer([]int{1})
	dst := make([]int, 0, batch)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range c {
			c[j].Row[1] = types.NewTimestamp(types.Time(i*batch + j))
		}
		dst = r.AppendVersions(dst[:0], c)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rows := float64(b.N * batch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
}
