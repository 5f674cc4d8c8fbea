package exec

// Tests for watermark completion through the completionIndex: the index's
// own contract (first-seen order out, O(closing) work in), and the property
// that each of the three operators built on it behaves byte-for-byte like its
// walk-every-group reference (completion_ref_test.go) while holding no
// closed group.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

// ---- the index alone ----

func tsKeyRow(at types.Time) types.Row { return types.Row{types.NewTimestamp(at)} }

// TestCompletionIndexFirstSeenOrder: groups first seen in the order a, b, c
// complete in the order c, b, a; one watermark closing all three must hand
// them back a, b, c. Fails if advance returns its heap's pop order.
func TestCompletionIndexFirstSeenOrder(t *testing.T) {
	// Slots are reused out of first-seen order, as a store's free list does.
	const a, b, n, c, d = 4, 2, 0, 1, 3
	x := completionIndex{keys: []eventKey{{pos: 0}}}
	x.add(a, tsKeyRow(300))
	x.add(b, tsKeyRow(200))
	x.add(n, types.Row{types.Null()}) // never completes
	x.add(c, tsKeyRow(100))
	x.add(d, tsKeyRow(400))

	if got := x.advance(50); len(got) != 0 {
		t.Fatalf("advance(50) closed %d groups, want 0", len(got))
	}
	var got []int32
	for _, c := range x.advance(300) {
		got = append(got, c.slot)
	}
	if fmt.Sprint(got) != fmt.Sprint([]int32{a, b, c}) {
		t.Fatalf("advance(300) closed slots %v, want %v (first-seen order)", got, []int32{a, b, c})
	}
	// Only d still waits: the NULL-keyed group was numbered, never held.
	if len(x.due) != 1 || x.due[0].slot != d || x.freed != 3 {
		t.Fatalf("after advance: %d groups waiting, freed %d; want 1 (d), 3", len(x.due), x.freed)
	}
	// A repeated watermark closes nothing; the NULL-keyed group never does.
	if got := x.advance(300); len(got) != 0 {
		t.Fatalf("repeated advance closed %d groups", len(got))
	}
	if got := x.advance(types.MaxTime); len(got) != 1 || got[0].slot != d {
		t.Fatalf("advance(max) closed %v, want [d]", got)
	}
	if len(x.due) != 0 || x.freed != 4 || x.seq != 5 {
		t.Fatalf("at the end: %d groups waiting, freed %d, next seq %d; want 0, 4, 5", len(x.due), x.freed, x.seq)
	}
}

// TestCompletionIndexTouchesOnlyClosingGroups pins the cost model: an advance
// takes exactly the groups it closes off the heap and stops at the first one
// still open (advance's loop is one peek per pop) — independent of how many
// groups were closed before and how many stay open. BenchmarkWatermarkAdvance
// pins the same property in time.
func TestCompletionIndexTouchesOnlyClosingGroups(t *testing.T) {
	x := completionIndex{keys: []eventKey{{pos: 0}}}
	const history, open = 100_000, 50_000
	for i := 0; i < history; i++ {
		x.add(int32(i), tsKeyRow(types.Time(i)))
	}
	if n := len(x.advance(history)); n != history {
		t.Fatalf("closed %d groups, want %d", n, history)
	}
	for i := 0; i < open; i++ {
		x.add(int32(i), tsKeyRow(types.Time(10*history+i)))
	}
	wm := types.Time(history)
	for _, closing := range []int{0, 1, 10, 137, 0} {
		for i := 0; i < closing; i++ {
			wm++
			x.add(int32(open+i), tsKeyRow(wm))
		}
		before := len(x.due)
		if n := len(x.advance(wm)); n != closing {
			t.Fatalf("advance closed %d groups, want %d", n, closing)
		}
		if got := before - len(x.due); got != closing {
			t.Fatalf("advance closing %d groups took %d off the heap (%d closed before, %d open)",
				closing, got, x.freed, len(x.due))
		}
		if x.due[0].at <= wm {
			t.Fatalf("advance(%d) left a group completing at %d on the heap", wm, x.due[0].at)
		}
	}
	if len(x.due) != open || x.freed != history+148 {
		t.Fatalf("open %d freed %d, want %d and %d", len(x.due), x.freed, open, history+148)
	}
}

// ---- the three operators against their walk-everything references ----

// completionSchema is the row shape every operator in the property test
// sees: a plain key, two event-time keys (one with a completion offset, so a
// group's completion time is a max over columns), and a value.
func completionSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "t1", Kind: types.KindTimestamp, EventTime: true, WmOffset: 4 * types.Second},
		types.Column{Name: "t2", Kind: types.KindTimestamp, EventTime: true},
		types.Column{Name: "v", Kind: types.KindInt64},
	)
}

// completionAggNode groups completionSchema rows by (k, t1, t2) with COUNT(*),
// SUM, AVG, MIN and MAX over v.
func completionAggNode() *plan.Aggregate {
	in := completionSchema()
	arg := &plan.ColRef{Idx: 3, K: types.KindInt64}
	return &plan.Aggregate{
		Input: &plan.Scan{Name: "s", Sch: in},
		Keys: []plan.Scalar{
			&plan.ColRef{Idx: 0, K: types.KindInt64},
			&plan.ColRef{Idx: 1, K: types.KindTimestamp},
			&plan.ColRef{Idx: 2, K: types.KindTimestamp},
		},
		Aggs: []plan.AggCall{
			{Kind: plan.AggCountStar, K: types.KindInt64},
			{Kind: plan.AggSum, Arg: arg, K: types.KindInt64},
			{Kind: plan.AggAvg, Arg: arg, K: types.KindFloat64},
			{Kind: plan.AggMin, Arg: arg, K: types.KindInt64},
			{Kind: plan.AggMax, Arg: arg, K: types.KindInt64},
		},
		Sch: types.NewSchema(
			in.Cols[0], in.Cols[1], in.Cols[2],
			types.Column{Name: "c", Kind: types.KindInt64},
			types.Column{Name: "s", Kind: types.KindInt64},
			types.Column{Name: "a", Kind: types.KindFloat64},
			types.Column{Name: "mn", Kind: types.KindInt64},
			types.Column{Name: "mx", Kind: types.KindInt64},
		),
	}
}

// randomCompletionLog generates a changelog over completionSchema that hits
// what watermark completion has to get right: event times scattered around
// the watermark (out of order, some late from the start), retractions of
// earlier inserts (some after their group closed), NULL event keys, runs of
// one key straddling a watermark, watermarks that repeat or regress, and
// watermark jumps that close several groups at once.
func randomCompletionLog(rng *rand.Rand, n int) []tvr.Event {
	const grid = 2 * types.Second
	var (
		log      []tvr.Event
		inserted []types.Row
		ptime    types.Time
		wm       types.Time
		prev     types.Row
	)
	stamp := func() types.Value {
		if rng.Intn(12) == 0 {
			return types.Null()
		}
		return types.NewTimestamp(wm + types.Time(rng.Intn(9)-3)*types.Time(grid))
	}
	for len(log) < n {
		ptime += types.Time(rng.Intn(3)) * types.Time(types.Second)
		switch r := rng.Intn(20); {
		case r < 3:
			switch rng.Intn(5) {
			case 0: // repeated or regressing watermark
				log = append(log, tvr.WatermarkEvent(ptime, wm-types.Time(rng.Intn(2))*types.Time(grid)))
				continue
			case 1: // a jump that closes many groups together
				wm += types.Time(2+rng.Intn(4)) * types.Time(grid)
			default:
				wm += types.Time(grid) / 2
			}
			log = append(log, tvr.WatermarkEvent(ptime, wm))
		case r < 4:
			log = append(log, tvr.HeartbeatEvent(ptime))
		case r < 8 && len(inserted) > 0:
			i := rng.Intn(len(inserted))
			log = append(log, tvr.DeleteEvent(ptime, inserted[i]))
			inserted[i] = inserted[len(inserted)-1]
			inserted = inserted[:len(inserted)-1]
		default:
			row := types.Row{types.NewInt(int64(rng.Intn(3))), stamp(), stamp(), types.NewInt(int64(rng.Intn(50)))}
			if prev != nil && rng.Intn(3) == 0 { // extend a run of the previous key
				row[0], row[1], row[2] = prev[0], prev[1], prev[2]
			}
			prev = row
			inserted = append(inserted, row)
			log = append(log, tvr.InsertEvent(ptime, row))
		}
	}
	return log
}

// completionCase is one operator under test next to its reference. push
// feeds one input event to both; groups is the production operator's store
// size.
type completionCase struct {
	name     string
	op, ref  statser
	out, exp *memSink
	push     func(ev tvr.Event) (opErr, refErr error)
	groups   func() int
	finish   func() (opErr, refErr error)
}

// refOp is a reference operator: per-event, as the operators were written
// before the batch contract.
type refOp interface {
	Push(ev tvr.Event) error
	Finish() error
}

func pushBoth(op sink, ref refOp) func(tvr.Event) (error, error) {
	return func(ev tvr.Event) (error, error) { return push(op, ev), ref.Push(ev) }
}

func finishBoth(op sink, ref refOp) func() (error, error) {
	return func() (error, error) { return op.Finish(), ref.Finish() }
}

func completionCases() []func() *completionCase {
	node := completionAggNode()
	sch := completionSchema()
	mk := func(name string) *completionCase {
		return &completionCase{name: name, out: &memSink{}, exp: &memSink{}}
	}
	delayCase := func(name string, alsoWatermark bool) func() *completionCase {
		return func() *completionCase {
			c := mk(name)
			op := newEmitAfterDelay(sch, 5*types.Second, alsoWatermark, c.out)
			ref := newRefEmitAfterDelay(sch, 5*types.Second, alsoWatermark, c.exp)
			c.op, c.ref = op, ref
			c.push, c.finish = pushBoth(op, ref), finishBoth(op, ref)
			c.groups = func() int { return op.groups.Len() }
			return c
		}
	}
	return []func() *completionCase{
		func() *completionCase {
			c := mk("agg")
			op, ref := newAggOp(node, c.out), newRefAggOp(node, c.exp)
			c.op, c.ref = op, ref
			c.push, c.finish = pushBoth(op, ref), finishBoth(op, ref)
			c.groups = func() int { return op.groups.Len() }
			return c
		},
		func() *completionCase {
			c := mk("emit-after-watermark")
			op, ref := newEmitAfterWatermark(sch, c.out), newRefEmitAfterWatermark(sch, c.exp)
			c.op, c.ref = op, ref
			c.push, c.finish = pushBoth(op, ref), finishBoth(op, ref)
			c.groups = func() int { return op.groups.Len() }
			return c
		},
		delayCase("emit-after-delay", false),
		delayCase("emit-after-delay-and-watermark", true),
	}
}

func opStats(s statser) Stats {
	var st Stats
	s.stats(&st)
	return st
}

// TestWatermarkCompletionMatchesWalk: on random changelogs each operator's
// output is byte-identical to its walk-everything reference after every
// input event, its state accounting is identical after every watermark, and
// its group store holds exactly the open groups (no tombstones).
func TestWatermarkCompletionMatchesWalk(t *testing.T) {
	logs, size := 40, 600
	if testing.Short() {
		logs = 10
	}
	for _, mk := range completionCases() {
		name := mk().name
		t.Run(name, func(t *testing.T) {
			freed := 0
			for seed := 0; seed < logs; seed++ {
				c := mk()
				log := randomCompletionLog(rand.New(rand.NewSource(int64(seed))), size)
				compare := func(at string) {
					t.Helper()
					got, want := c.out.render(), c.exp.render()
					for i := 0; i < len(got) || i < len(want); i++ {
						if i >= len(got) || i >= len(want) || got[i] != want[i] {
							t.Fatalf("seed %d, %s: output diverges at event %d:\n got %v\nwant %v",
								seed, at, i, tail(got, i), tail(want, i))
						}
					}
					c.out.evs, c.exp.evs = c.out.evs[:0], c.exp.evs[:0]
				}
				for i, ev := range log {
					opErr, refErr := c.push(ev)
					if (opErr == nil) != (refErr == nil) {
						t.Fatalf("seed %d, input %d %s: error %v, reference %v", seed, i, ev, opErr, refErr)
					}
					if opErr != nil {
						t.Fatalf("seed %d, input %d %s: %v", seed, i, ev, opErr)
					}
					compare(fmt.Sprintf("input %d %s", i, ev))
					if ev.Kind != tvr.Watermark {
						continue
					}
					got, want := opStats(c.op), opStats(c.ref)
					if got != want {
						t.Fatalf("seed %d, after input %d %s: stats %+v, reference %+v", seed, i, ev, got, want)
					}
					if c.groups() != got.StateGroups {
						t.Fatalf("seed %d, after input %d %s: %d groups in the store, %d open (tombstones left behind)",
							seed, i, ev, c.groups(), got.StateGroups)
					}
				}
				freed += opStats(c.ref).FreedGroups
				opErr, refErr := c.finish()
				if opErr != nil || refErr != nil {
					t.Fatalf("seed %d: finish: %v, reference %v", seed, opErr, refErr)
				}
				compare("finish")
			}
			if name != "emit-after-delay" && freed == 0 {
				t.Fatalf("no group was ever closed by a watermark; the generator is not exercising completion")
			}
		})
	}
}

func tail(evs []string, from int) []string {
	if from >= len(evs) {
		return nil
	}
	if len(evs)-from > 6 {
		return evs[from : from+6]
	}
	return evs[from:]
}
