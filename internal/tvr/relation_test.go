package tvr

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/types"
)

// refBag is the reference model of Relation's observable behavior: a bag
// that keeps every key it ever saw, at count zero once the row left, and
// moves a re-entering key to the back of the order.
type refBag struct {
	count map[string]int
	row   map[string]types.Row
	order []string
}

func newRefBag() *refBag {
	return &refBag{count: map[string]int{}, row: map[string]types.Row{}}
}

func (b *refBag) insert(r types.Row) {
	k := r.Key()
	c, seen := b.count[k]
	if c == 0 {
		if seen {
			for i, o := range b.order {
				if o == k {
					b.order = append(b.order[:i], b.order[i+1:]...)
					break
				}
			}
		}
		b.order = append(b.order, k)
		b.row[k] = r
	}
	b.count[k] = c + 1
}

func (b *refBag) delete(r types.Row) bool {
	k := r.Key()
	if b.count[k] == 0 {
		return false
	}
	b.count[k]--
	return true
}

func (b *refBag) rows() []types.Row {
	out := []types.Row{}
	for _, k := range b.order {
		for i := 0; i < b.count[k]; i++ {
			out = append(out, b.row[k])
		}
	}
	return out
}

// diff is Diff over the model: deletions in b's order, then insertions in
// o's order.
func (b *refBag) diff(o *refBag, p types.Time) Changelog {
	var out Changelog
	for _, k := range b.order {
		for i := o.count[k]; i < b.count[k]; i++ {
			out = append(out, DeleteEvent(p, b.row[k]))
		}
	}
	for _, k := range o.order {
		for i := b.count[k]; i < o.count[k]; i++ {
			out = append(out, InsertEvent(p, o.row[k]))
		}
	}
	return out
}

func (b *refBag) equal(o *refBag) bool {
	for _, m := range []map[string]int{b.count, o.count} {
		for k := range m {
			if b.count[k] != o.count[k] {
				return false
			}
		}
	}
	return true
}

// state encodes the model in SaveState's layout: the live rows in order,
// each with its multiplicity.
func (b *refBag) state(t *testing.T) []byte {
	t.Helper()
	var live []string
	for _, k := range b.order {
		if b.count[k] > 0 {
			live = append(live, k)
		}
	}
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	enc.Section("tvr.Relation")
	enc.Uvarint(uint64(len(live)))
	for _, k := range live {
		enc.Row(b.row[k])
		enc.Uvarint(uint64(b.count[k]))
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func relationState(t *testing.T, r *Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	r.SaveState(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// churn applies n random inserts and deletes over a universe of rows small
// enough that rows leave and re-enter often, to r and to the model alike.
func churn(t *testing.T, rng *rand.Rand, r *Relation, m *refBag, n, universe int) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := row(int64(rng.Intn(universe)))
		if rng.Intn(2) == 0 {
			r.Insert(x)
			m.insert(x)
			continue
		}
		err := r.Delete(x)
		if ok := m.delete(x); ok != (err == nil) {
			t.Fatalf("delete %v: err %v, model present=%v", x, err, ok)
		}
	}
}

// TestRelationMatchesReference: under random churn, iteration order, Len,
// Count, Equal, Diff, Clone and the SaveState bytes are those of the
// reference bag that never forgets a row.
func TestRelationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		universe := 1 + rng.Intn(12)
		a, ma := NewRelation(), newRefBag()
		b, mb := NewRelation(), newRefBag()
		churn(t, rng, a, ma, rng.Intn(80), universe)
		churn(t, rng, b, mb, rng.Intn(80), universe)
		for _, c := range []struct {
			r *Relation
			m *refBag
		}{{a, ma}, {b, mb}} {
			if got, want := c.r.Rows(), c.m.rows(); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: rows %v, want %v", round, got, want)
			}
			if c.r.Len() != len(c.m.rows()) {
				t.Fatalf("round %d: Len %d, want %d", round, c.r.Len(), len(c.m.rows()))
			}
			for v := 0; v < universe; v++ {
				if got, want := c.r.Count(row(int64(v))), c.m.count[row(int64(v)).Key()]; got != want {
					t.Fatalf("round %d: Count(%d) %d, want %d", round, v, got, want)
				}
			}
			if got, want := relationState(t, c.r), c.m.state(t); !bytes.Equal(got, want) {
				t.Fatalf("round %d: SaveState bytes differ from the reference layout", round)
			}
			cl := c.r.Clone()
			if !cl.Equal(c.r) || !reflect.DeepEqual(cl.Rows(), c.r.Rows()) || !bytes.Equal(relationState(t, cl), relationState(t, c.r)) {
				t.Fatalf("round %d: clone differs", round)
			}
		}
		if got, want := a.Equal(b), ma.equal(mb); got != want {
			t.Fatalf("round %d: Equal %v, want %v", round, got, want)
		}
		if got, want := a.Diff(b, 5), ma.diff(mb, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Diff %v, want %v", round, got, want)
		}
	}
}

// TestRelationForgetsRowsAtZero: a row whose multiplicity reaches zero
// leaves the bag, so 10k insert/delete pairs of distinct rows leave it
// empty, and the order list holds no more dead entries than live ones.
func TestRelationForgetsRowsAtZero(t *testing.T) {
	r := NewRelation()
	r.Insert(row(-1)) // one resident row
	for i := 0; i < 10000; i++ {
		x := row(int64(i))
		r.Insert(x)
		if err := r.ApplyOwned(Changelog{DeleteEvent(0, x)}); err != nil {
			t.Fatal(err)
		}
		if len(r.order) > 2*len(r.entries) {
			t.Fatalf("after %d pairs: %d entries in order for %d live rows", i+1, len(r.order), len(r.entries))
		}
	}
	if len(r.entries) != 1 || r.Len() != 1 || len(r.order) > 2 {
		t.Fatalf("after the churn: %d entries, Len %d, %d in order; want the resident row alone", len(r.entries), r.Len(), len(r.order))
	}
	if err := r.Delete(row(-1)); err != nil {
		t.Fatal(err)
	}
	if len(r.entries) != 0 || len(r.order) != 0 || r.Len() != 0 {
		t.Fatalf("emptied bag keeps %d entries, %d in order, Len %d", len(r.entries), len(r.order), r.Len())
	}
}

// TestRelationReentryRepresentative: a row that leaves and re-enters is
// represented by the re-entering copy, as a restored relation is. Keys
// equate numerics, so 1.0 and 1 are one row.
func TestRelationReentryRepresentative(t *testing.T) {
	f, i := types.Row{types.NewFloat(1)}, types.Row{types.NewInt(1)}
	r := NewRelation()
	r.Insert(f)
	if err := r.Delete(f); err != nil {
		t.Fatal(err)
	}
	r.Insert(i)
	if got := r.Rows(); len(got) != 1 || got[0][0].Kind() != types.KindInt64 {
		t.Fatalf("re-entered row reads %v, want the re-entering INT 1", got)
	}
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	r.SaveState(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewRelation()
	if err := restored.LoadState(dec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Rows(), r.Rows()) {
		t.Fatalf("restored %v, live %v", restored.Rows(), r.Rows())
	}
}

// TestRelationLoadRejectsDuplicate: a snapshot that lists one row twice is
// corrupt (SaveState writes each row once, with its multiplicity). Loading
// it used to keep the row twice in the iteration order, so Rows and Len
// disagreed; it must fail instead.
func TestRelationLoadRejectsDuplicate(t *testing.T) {
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	enc.Section("tvr.Relation")
	enc.Uvarint(3)
	for _, e := range []struct {
		r types.Row
		n uint64
	}{{row(1), 2}, {row(2), 1}, {row(1), 1}} {
		enc.Row(e.r)
		enc.Uvarint(e.n)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	err = NewRelation().LoadState(dec)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("LoadState of a duplicated row: err %v, want a duplicate-entry error", err)
	}
}

// TestRelationChurnAllocs pins the cost of a row leaving and re-entering
// the bag: the re-entry allocates its entry and its key, and nothing else —
// the deletion and the amortized compaction of the order list allocate
// nothing.
func TestRelationChurnAllocs(t *testing.T) {
	rows, r := churnRows(), NewRelation()
	allocs := testing.AllocsPerRun(20, func() {
		for _, x := range rows {
			if err := r.ApplyOwned(Changelog{InsertEvent(0, x)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, x := range rows {
			if err := r.ApplyOwned(Changelog{DeleteEvent(0, x)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perPair := allocs / float64(len(rows)); perPair > 2 {
		t.Fatalf("a leave/re-enter pair allocates %.2f times, want at most 2 (entry and key)", perPair)
	}
}
