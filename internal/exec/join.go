package exec

import (
	"fmt"

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

// joinSide holds one input's live rows bucketed by equi-key. Buckets are held
// by pointer so adding a row to an existing bucket never re-stores its map
// key: the key string is allocated once, when the bucket is created.
type joinSide struct {
	buckets map[string]*joinBucket
	size    int
}

type joinBucket struct {
	key  string // the bucket's map key, for allocation-free removal
	rows []*joinRow
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
		left:        &joinSide{buckets: make(map[string]*joinBucket)},
		right:       &joinSide{buckets: make(map[string]*joinBucket)},
		leftExpiry:  x.LeftExpiry,
		rightExpiry: x.RightExpiry,
	}
	j.onWatermark = j.expire
	return j
}

type joinPort struct {
	j    *joinOp
	side int // 0 = left, 1 = right
}

func (j *joinOp) leftPort() sink  { return &joinPort{j: j, side: 0} }
func (j *joinOp) rightPort() sink { return &joinPort{j: j, side: 1} }

func (p *joinPort) Push(ev tvr.Event) error {
	if done, err := p.j.pushControl(p.side, ev); done || err != nil {
		return err
	}
	return p.j.apply(p.side, ev)
}

func (p *joinPort) Finish() error { return p.j.finishPort() }

// Push/Finish satisfy sink on the operator itself; ports are the real inputs.
func (j *joinOp) Push(ev tvr.Event) error { return j.out.Push(ev) }

// Finish implements sink.
func (j *joinOp) Finish() error { return nil }

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

// apply processes one data event from the given side.
func (j *joinOp) apply(side int, ev tvr.Event) error {
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
	// Both sides are probed through the key scratch: m[string(buf)] lookups
	// do not allocate.
	j.keyBuf = ev.Row.AppendKeyOf(j.keyBuf[:0], j.keysOf(side))

	// Locate/create my row entry.
	bucket := mySide.buckets[string(j.keyBuf)]
	var mine *joinRow
	if bucket != nil {
		for _, jr := range bucket.rows {
			if jr.row.Equal(ev.Row) {
				mine = jr
				break
			}
		}
	}
	if mine == nil {
		if delta < 0 {
			return fmt.Errorf("exec: join retraction of absent row %s", ev.Row)
		}
		mine = &joinRow{row: ev.Row.Clone()}
		if bucket == nil {
			bucket = &joinBucket{key: string(j.keyBuf)}
			mySide.buckets[bucket.key] = bucket
		}
		bucket.rows = append(bucket.rows, mine)
	}

	// Walk matching opposite rows, emitting joined deltas and updating
	// their match counts.
	var others []*joinRow
	if ob := otherSide.buckets[string(j.keyBuf)]; ob != nil {
		others = ob.rows
	}
	myMatches := 0
	for _, other := range others {
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
		n := other.count
		for i := 0; i < n; i++ {
			if err := j.emitData(ev.Ptime, delta, joined); err != nil {
				return err
			}
		}
		// The opposite row's match count changes by my delta.
		before := other.matches
		other.matches += delta * 1
		if otherPad {
			if before == 0 && other.matches > 0 {
				// Retract its null-padded output (once per instance).
				for i := 0; i < other.count; i++ {
					if err := j.emitData(ev.Ptime, -1, j.nullPad(1-side, other.row)); err != nil {
						return err
					}
				}
			} else if before > 0 && other.matches == 0 {
				for i := 0; i < other.count; i++ {
					if err := j.emitData(ev.Ptime, 1, j.nullPad(1-side, other.row)); err != nil {
						return err
					}
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
			if err := j.emitData(ev.Ptime, 1, j.nullPad(side, mine.row)); err != nil {
				return err
			}
		}
	} else {
		mine.count--
		mySide.size--
		if mine.count < 0 {
			return fmt.Errorf("exec: join retraction underflow for row %s", ev.Row)
		}
		if myPad && mine.matches == 0 {
			if err := j.emitData(ev.Ptime, -1, j.nullPad(side, mine.row)); err != nil {
				return err
			}
		}
		if mine.count == 0 {
			dropRow(mySide, bucket, mine)
		}
	}
	return nil
}

func (j *joinOp) emitData(p types.Time, delta int, row types.Row) error {
	if delta > 0 {
		return j.out.Push(tvr.InsertEvent(p, row))
	}
	return j.out.Push(tvr.DeleteEvent(p, row))
}

// dropRow removes target from its bucket, and the bucket from the side once
// empty.
func dropRow(side *joinSide, bucket *joinBucket, target *joinRow) {
	for i, jr := range bucket.rows {
		if jr == target {
			bucket.rows = append(bucket.rows[:i], bucket.rows[i+1:]...)
			break
		}
	}
	if len(bucket.rows) == 0 {
		delete(side.buckets, bucket.key)
	}
}

// expire frees stored rows whose interval-join expiry passed the merged
// watermark. Expired rows can no longer produce new matches (the optimizer
// proved the bound from the join predicate) so dropping them is output-
// invariant.
func (j *joinOp) expire(wm types.Time, _ types.Time) error {
	if j.leftExpiry != nil {
		expireSide(j.left, j.leftExpiry, wm)
	}
	if j.rightExpiry != nil {
		expireSide(j.right, j.rightExpiry, wm)
	}
	return nil
}

func expireSide(side *joinSide, b *plan.ExpiryBound, wm types.Time) {
	for key, bucket := range side.buckets {
		kept := bucket.rows[:0]
		for _, jr := range bucket.rows {
			v := jr.row[b.Col]
			if !v.IsNull() && v.Kind() == types.KindTimestamp && wm >= v.Timestamp().Add(b.Bound) {
				side.size -= jr.count
				continue
			}
			kept = append(kept, jr)
		}
		if len(kept) == 0 {
			delete(side.buckets, key)
		} else {
			bucket.rows = kept
		}
	}
}

func (j *joinOp) stats(s *Stats) {
	s.StateRows += j.left.size + j.right.size
}
