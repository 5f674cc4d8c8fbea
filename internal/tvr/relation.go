package tvr

import (
	"fmt"

	"repro/internal/types"
)

// Relation is an instantaneous relation: a bag (multiset) of rows, the value
// a TVR takes at a single point in time. Iteration order is deterministic:
// distinct rows enumerate in the order they first (re)entered the bag. A row
// whose multiplicity reaches zero leaves the bag entirely, so the relation
// holds its current contents, not every row it ever saw; a row that enters
// again is a new entry, at the back of the order, and is its own
// representative (the copy a restored relation holds too).
type Relation struct {
	entries map[string]*entry
	// order lists entries in (re)entry order. An entry that left the bag
	// stays here, dead (count 0), until dead entries outnumber live ones
	// and compact drops them.
	order   []*entry
	size    int    // total multiplicity
	scratch []byte // reusable key-encoding buffer for the non-keyed paths
}

type entry struct {
	key   string
	row   types.Row
	count int
}

// NewRelation returns an empty relation.
func NewRelation() *Relation {
	return &Relation{entries: make(map[string]*entry)}
}

// Insert adds one copy of row to the bag. The row's key is encoded into the
// relation's scratch buffer; the key string is only materialized when the row
// enters the bag (map lookups through string(scratch) are allocation-free).
func (r *Relation) Insert(row types.Row) { r.insert(row, true) }

// insert adds one copy of row; clone says whether a row entering the bag is
// copied or retained as is.
func (r *Relation) insert(row types.Row, clone bool) {
	r.scratch = row.AppendKey(r.scratch[:0])
	if e, ok := r.entries[string(r.scratch)]; ok {
		e.count++
		r.size++
		return
	}
	if clone {
		row = row.Clone()
	}
	r.add(&entry{key: string(r.scratch), row: row, count: 1})
}

// Delete removes one copy of row from the bag. Deleting a row that is not
// present is an error: it means an upstream operator emitted an unmatched
// retraction, which would silently corrupt downstream state.
func (r *Relation) Delete(row types.Row) error {
	r.scratch = row.AppendKey(r.scratch[:0])
	e, ok := r.entries[string(r.scratch)]
	if !ok {
		return fmt.Errorf("tvr: retraction of absent row %s", row)
	}
	e.count--
	r.size--
	if e.count == 0 {
		delete(r.entries, e.key)
		if len(r.order)-len(r.entries) > len(r.entries) {
			r.compact()
		}
	}
	return nil
}

// compact drops the dead entries from order. It runs once they outnumber the
// live ones, so its cost is amortized over the deletions that killed them.
func (r *Relation) compact() {
	live := r.order[:0]
	for _, e := range r.order {
		if e.count > 0 {
			live = append(live, e)
		}
	}
	clear(r.order[len(live):])
	r.order = live
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

// ApplyOwned folds every event of log into the bag, for callers that
// guarantee its rows are immutable and may be retained (a fold over a
// changelog the caller keeps). It skips the defensive copy an entering
// insert would otherwise make, and stops at the first error.
func (r *Relation) ApplyOwned(log Changelog) error {
	for _, e := range log {
		if e.Kind == Insert {
			r.insert(e.Row, false)
		} else if err := r.Apply(e); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the multiplicity of row in the bag.
func (r *Relation) Count(row types.Row) int { return r.count(row.Key()) }

// Len returns the total number of rows (counting multiplicity).
func (r *Relation) Len() int { return r.size }

// Rows returns every row (expanded by multiplicity) in deterministic
// (re)entry order, in a slice the caller owns.
func (r *Relation) Rows() []types.Row {
	out := make([]types.Row, 0, r.size)
	for _, e := range r.order {
		for i := 0; i < e.count; i++ {
			out = append(out, e.row)
		}
	}
	return out
}

// Equal reports whether two relations contain exactly the same bag of rows.
func (r *Relation) Equal(o *Relation) bool {
	if r.size != o.size || len(r.entries) != len(o.entries) {
		return false
	}
	for k, e := range r.entries {
		if oe, ok := o.entries[k]; !ok || oe.count != e.count {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation()
	for _, e := range r.order {
		if e.count > 0 {
			out.add(&entry{key: e.key, row: e.row.Clone(), count: e.count})
		}
	}
	return out
}

// add appends a live entry whose key is not in the bag.
func (r *Relation) add(e *entry) {
	r.entries[e.key] = e
	r.order = append(r.order, e)
	r.size += e.count
}

// count returns the multiplicity of the row keyed k.
func (r *Relation) count(k string) int {
	if e, ok := r.entries[k]; ok {
		return e.count
	}
	return 0
}

// Diff returns the changelog (at ptime p) that transforms r into o:
// deletions for rows over-represented in r, insertions for rows
// over-represented in o. It is the primitive behind EMIT AFTER DELAY's
// coalesced materialization.
func (r *Relation) Diff(o *Relation, p types.Time) Changelog {
	var out Changelog
	// Deletions first so downstream bags never over-count.
	for _, e := range r.order {
		for i := o.count(e.key); i < e.count; i++ {
			out = append(out, DeleteEvent(p, e.row))
		}
	}
	for _, oe := range o.order {
		for i := r.count(oe.key); i < oe.count; i++ {
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
