package exec

import (
	"fmt"
	"slices"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// joinOp implements incremental inner and outer joins with retraction
// support. Each side's live rows are indexed by the extracted equi-key; the
// residual predicate is evaluated per candidate pair. Outer joins track a
// per-row match count so null-padded rows are emitted and retracted exactly
// when a row transitions between matched and unmatched.
//
// When the optimizer derives event-time expiry bounds from interval
// predicates (e.g. Q7's bidtime >= wend - 10min AND bidtime < wend), rows
// whose expiry has passed the merged watermark are freed — the state-cleanup
// behaviour Section 5 calls out as essential for unbounded inputs.
type joinOp struct {
	*mergingSink
	kind      sqlparser.JoinKind
	leftKeys  []int
	rightKeys []int
	residual  plan.Scalar
	leftW     int
	rightW    int

	left  *joinSide
	right *joinSide

	leftExpiry  *plan.ExpiryBound
	rightExpiry *plan.ExpiryBound

	keyBuf []byte // equi-key encoding scratch, reused across events
}

// joinSide holds one input's live rows bucketed by equi-key. A bucket keeps
// its rows in arrival order, which decides the order matching pairs are
// emitted in.
type joinSide struct {
	buckets tvr.Store[joinBucket]
	size    int
}

type joinBucket struct {
	rows []joinRow
}

type joinRow struct {
	row     types.Row
	count   int // live multiplicity
	matches int // matching opposite-side row instances (for outer joins)
}

func newJoinOp(x *plan.Join, out sink) *joinOp {
	j := &joinOp{
		mergingSink: newMergingSink(2, out),
		kind:        x.Kind,
		leftKeys:    x.LeftKeys,
		rightKeys:   x.RightKeys,
		residual:    x.Residual,
		leftW:       x.Left.Schema().Len(),
		rightW:      x.Right.Schema().Len(),
		left:        &joinSide{},
		right:       &joinSide{},
		leftExpiry:  x.LeftExpiry,
		rightExpiry: x.RightExpiry,
	}
	j.apply = j.applySide
	j.onWatermark = j.expire
	return j
}

// padLeft reports whether unmatched left rows emit null-padded outputs.
func (j *joinOp) padLeft() bool {
	return j.kind == sqlparser.LeftJoin || j.kind == sqlparser.FullJoin
}

// padRight reports whether unmatched right rows emit null-padded outputs.
func (j *joinOp) padRight() bool {
	return j.kind == sqlparser.RightJoin || j.kind == sqlparser.FullJoin
}

// keysOf returns the equi-key columns of the given side.
func (j *joinOp) keysOf(side int) []int {
	if side == 0 {
		return j.leftKeys
	}
	return j.rightKeys
}

// pair builds the joined row in left-right order regardless of which side
// the triggering event arrived on.
func (j *joinOp) pair(side int, evRow, otherRow types.Row) types.Row {
	if side == 0 {
		return evRow.Concat(otherRow)
	}
	return otherRow.Concat(evRow)
}

func (j *joinOp) passes(joined types.Row) (bool, error) {
	if j.residual == nil {
		return true, nil
	}
	return plan.EvalBool(j.residual, joined)
}

func (j *joinOp) nullPad(side int, row types.Row) types.Row {
	if side == 0 {
		padded := make(types.Row, j.rightW)
		return row.Concat(padded)
	}
	padded := make(types.Row, j.leftW)
	return types.Row(padded).Concat(row)
}

// applySide processes one data event from the given side (0 = left,
// 1 = right).
func (j *joinOp) applySide(side int, ev tvr.Event) error {
	mySide, otherSide := j.left, j.right
	myPad, otherPad := j.padLeft(), j.padRight()
	if side == 1 {
		mySide, otherSide = j.right, j.left
		myPad, otherPad = j.padRight(), j.padLeft()
	}
	delta := 1
	if ev.Kind == tvr.Delete {
		delta = -1
	}
	j.keyBuf = ev.Row.AppendKeyOf(j.keyBuf[:0], j.keysOf(side))

	// Locate/create my row entry.
	bs := mySide.buckets.Find(j.keyBuf)
	mi := -1
	if bs >= 0 {
		rows := mySide.buckets.At(bs).rows
		for i := range rows {
			if rows[i].row.Equal(ev.Row) {
				mi = i
				break
			}
		}
	}
	if mi < 0 {
		if delta < 0 {
			return fmt.Errorf("exec: join retraction of absent row %s", ev.Row)
		}
		if bs < 0 {
			bs = mySide.buckets.Insert(j.keyBuf)
		}
		b := mySide.buckets.At(bs)
		mi = len(b.rows)
		b.rows = append(b.rows, joinRow{row: ev.Row.Clone()})
	}
	bucket := mySide.buckets.At(bs)
	mine := &bucket.rows[mi]

	// Walk matching opposite rows, emitting joined deltas and updating
	// their match counts.
	var others []joinRow
	if ob := otherSide.buckets.Find(j.keyBuf); ob >= 0 {
		others = otherSide.buckets.At(ob).rows
	}
	myMatches := 0
	for oi := range others {
		other := &others[oi]
		if other.count == 0 {
			continue
		}
		joined := j.pair(side, mine.row, other.row)
		ok, err := j.passes(joined)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		myMatches += other.count
		// Emit one joined delta per pair instance.
		for i := 0; i < other.count; i++ {
			j.emitData(ev.Ptime, delta, joined)
		}
		// The opposite row's match count changes by my delta.
		before := other.matches
		other.matches += delta * 1
		if otherPad {
			if before == 0 && other.matches > 0 {
				// Retract its null-padded output (once per instance).
				for i := 0; i < other.count; i++ {
					j.emitData(ev.Ptime, -1, j.nullPad(1-side, other.row))
				}
			} else if before > 0 && other.matches == 0 {
				for i := 0; i < other.count; i++ {
					j.emitData(ev.Ptime, 1, j.nullPad(1-side, other.row))
				}
			}
		}
	}

	// Null padding for my own row instance.
	if delta > 0 {
		if mine.count == 0 {
			mine.matches = myMatches
		}
		mine.count++
		mySide.size++
		if myPad && mine.matches == 0 {
			j.emitData(ev.Ptime, 1, j.nullPad(side, mine.row))
		}
	} else {
		mine.count--
		mySide.size--
		if mine.count < 0 {
			return fmt.Errorf("exec: join retraction underflow for row %s", ev.Row)
		}
		if myPad && mine.matches == 0 {
			j.emitData(ev.Ptime, -1, j.nullPad(side, mine.row))
		}
		if mine.count == 0 {
			bucket.rows = slices.Delete(bucket.rows, mi, mi+1)
			if len(bucket.rows) == 0 {
				mySide.buckets.Remove(bs)
			}
		}
	}
	return nil
}

// emitData appends one joined (or null-padded) delta to the output.
func (j *joinOp) emitData(p types.Time, delta int, row types.Row) {
	if delta > 0 {
		j.pend = append(j.pend, tvr.InsertEvent(p, row))
	} else {
		j.pend = append(j.pend, tvr.DeleteEvent(p, row))
	}
}

// expire frees stored rows whose interval-join expiry passed the merged
// watermark. Expired rows can no longer produce new matches (the optimizer
// proved the bound from the join predicate) so dropping them is output-
// invariant.
func (j *joinOp) expire(wm types.Time) {
	if j.leftExpiry != nil {
		expireSide(j.left, j.leftExpiry, wm)
	}
	if j.rightExpiry != nil {
		expireSide(j.right, j.rightExpiry, wm)
	}
}

func expireSide(side *joinSide, b *plan.ExpiryBound, wm types.Time) {
	for bs := side.buckets.First(); bs >= 0; {
		bucket := side.buckets.At(bs)
		bucket.rows = slices.DeleteFunc(bucket.rows, func(jr joinRow) bool {
			v := jr.row[b.Col]
			if !v.IsNull() && v.Kind() == types.KindTimestamp && wm >= v.Timestamp().Add(b.Bound) {
				side.size -= jr.count
				return true
			}
			return false
		})
		next := side.buckets.Next(bs)
		if len(bucket.rows) == 0 {
			side.buckets.Remove(bs)
		}
		bs = next
	}
}

func (j *joinOp) stats(s *Stats) {
	s.StateRows += j.left.size + j.right.size
}
