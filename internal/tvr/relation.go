package tvr

import (
	"fmt"

	"repro/internal/types"
)

// Relation is an instantaneous relation: a bag (multiset) of rows, the value
// a TVR takes at a single point in time. Iteration order is deterministic:
// distinct rows enumerate in the order they first (re)entered the bag.
type Relation struct {
	entries map[string]*entry
	order   []string // keys in first-insertion order
	size    int      // total multiplicity
	scratch []byte   // reusable key-encoding buffer for the non-keyed paths
}

type entry struct {
	row   types.Row
	count int
}

// NewRelation returns an empty relation.
func NewRelation() *Relation {
	return &Relation{entries: make(map[string]*entry)}
}

// Insert adds one copy of row to the bag. The row's key is encoded into the
// relation's scratch buffer; the key string is only materialized when the row
// enters the bag for the first time (map lookups through string(scratch) are
// allocation-free).
func (r *Relation) Insert(row types.Row) { r.insert(row, true) }

// insert adds one copy of row; clone says whether a row entering the bag for
// the first time is copied or retained as is.
func (r *Relation) insert(row types.Row, clone bool) {
	r.scratch = row.AppendKey(r.scratch[:0])
	if e, ok := r.entries[string(r.scratch)]; ok {
		if e.count == 0 {
			// Re-entering the bag: move to the back of the iteration order.
			// Only this cold branch materializes the key.
			k := string(r.scratch)
			r.removeFromOrder(k)
			r.order = append(r.order, k)
		}
		e.count++
		r.size++
		return
	}
	if clone {
		row = row.Clone()
	}
	k := string(r.scratch)
	r.entries[k] = &entry{row: row, count: 1}
	r.order = append(r.order, k)
	r.size++
}

// Delete removes one copy of row from the bag. Deleting a row that is not
// present is an error: it means an upstream operator emitted an unmatched
// retraction, which would silently corrupt downstream state.
func (r *Relation) Delete(row types.Row) error {
	r.scratch = row.AppendKey(r.scratch[:0])
	e, ok := r.entries[string(r.scratch)]
	if !ok || e.count == 0 {
		return fmt.Errorf("tvr: retraction of absent row %s", row)
	}
	e.count--
	r.size--
	return nil
}

// Apply folds a data event into the bag.
func (r *Relation) Apply(e Event) error {
	switch e.Kind {
	case Insert:
		r.Insert(e.Row)
		return nil
	case Delete:
		return r.Delete(e.Row)
	default:
		return nil
	}
}

// ApplyOwned is Apply for callers that guarantee e.Row is immutable and may
// be retained (e.g. a fold over a changelog the caller keeps). It skips the
// defensive copy a first-time insert would otherwise make.
func (r *Relation) ApplyOwned(e Event) error {
	if e.Kind == Insert {
		r.insert(e.Row, false)
		return nil
	}
	return r.Apply(e)
}

func (r *Relation) removeFromOrder(k string) {
	for i, ok := range r.order {
		if ok == k {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// Count returns the multiplicity of row in the bag.
func (r *Relation) Count(row types.Row) int {
	if e, ok := r.entries[row.Key()]; ok {
		return e.count
	}
	return 0
}

// Len returns the total number of rows (counting multiplicity).
func (r *Relation) Len() int { return r.size }

// Rows returns every row (expanded by multiplicity) in deterministic
// first-insertion order.
func (r *Relation) Rows() []types.Row {
	out := make([]types.Row, 0, r.size)
	for _, k := range r.order {
		e := r.entries[k]
		for i := 0; i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// Equal reports whether two relations contain exactly the same bag of rows.
func (r *Relation) Equal(o *Relation) bool {
	if r.size != o.size {
		return false
	}
	for k, e := range r.entries {
		oe, ok := o.entries[k]
		oc := 0
		if ok {
			oc = oe.count
		}
		if e.count != oc {
			return false
		}
	}
	for k, oe := range o.entries {
		if oe.count > 0 {
			if e, ok := r.entries[k]; !ok || e.count == 0 {
				return false
			}
		}
	}
	return true
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation()
	for _, k := range r.order {
		e := r.entries[k]
		out.entries[k] = &entry{row: e.row.Clone(), count: e.count}
		out.order = append(out.order, k)
		out.size += e.count
	}
	return out
}

// Diff returns the changelog (at ptime p) that transforms r into o:
// deletions for rows over-represented in r, insertions for rows
// over-represented in o. It is the primitive behind EMIT AFTER DELAY's
// coalesced materialization.
func (r *Relation) Diff(o *Relation, p types.Time) Changelog {
	var out Changelog
	// Deletions first so downstream bags never over-count.
	for _, k := range r.order {
		e := r.entries[k]
		oc := 0
		if oe, ok := o.entries[k]; ok {
			oc = oe.count
		}
		for i := oc; i < e.count; i++ {
			out = append(out, DeleteEvent(p, e.row))
		}
	}
	for _, k := range o.order {
		oe := o.entries[k]
		rc := 0
		if re, ok := r.entries[k]; ok {
			rc = re.count
		}
		for i := rc; i < oe.count; i++ {
			out = append(out, InsertEvent(p, oe.row))
		}
	}
	return out
}

// String renders the bag's contents for debugging.
func (r *Relation) String() string {
	s := "{"
	for i, row := range r.Rows() {
		if i > 0 {
			s += ", "
		}
		s += row.String()
	}
	return s + "}"
}
