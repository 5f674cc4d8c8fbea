package exec

// Checkpoint round-trips for every stateful operator in isolation: each
// operator is driven halfway through an input sequence, serialized, restored
// into a fresh instance, and both copies are driven through the rest of the
// sequence — the restored copy's emissions (and its re-serialized state)
// must match the original's exactly. These tests construct operators
// directly, so a bug is pinned to one operator's SaveState/LoadState rather
// than surfacing as a whole-pipeline divergence.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// memSink records pushed events.
type memSink struct {
	evs      []tvr.Event
	finished bool
}

func (m *memSink) PushBatch(evs []tvr.Event) error { m.evs = append(m.evs, evs...); return nil }
func (m *memSink) Finish() error                   { m.finished = true; return nil }

// push delivers evs to s as one batch.
func push(s sink, evs ...tvr.Event) error { return s.PushBatch(evs) }

func (m *memSink) render() []string {
	out := make([]string, len(m.evs))
	for i, ev := range m.evs {
		out[i] = ev.String()
	}
	return out
}

// saverRoundTrip serializes src's state and loads it into dst.
func saverRoundTrip(t *testing.T, src, dst stateSaver) {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	src.SaveState(enc)
	if err := enc.Close(); err != nil {
		t.Fatalf("save: %v", err)
	}
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(dec); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("trailer: %v", err)
	}
}

// encodeState returns an operator state's canonical bytes (for equality
// checks between original and restored copies after further input).
func encodeState(t *testing.T, s stateSaver) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	s.SaveState(enc)
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opRoundTrip drives the operator-pair experiment: feed prefix into the
// original, snapshot/restore into a fresh copy, feed suffix into both, and
// require identical suffix emissions and identical final state bytes.
func opRoundTrip(t *testing.T, label string, mk func(out sink) stateSaver, prefix, suffix []tvr.Event) {
	t.Helper()
	origOut := &memSink{}
	orig := mk(origOut)
	push := func(op stateSaver, evs []tvr.Event) {
		t.Helper()
		for _, ev := range evs {
			if err := push(op.(sink), ev); err != nil {
				t.Fatalf("%s: push %s: %v", label, ev, err)
			}
		}
	}
	push(orig, prefix)
	restoredOut := &memSink{}
	restored := mk(restoredOut)
	saverRoundTrip(t, orig, restored)

	markOrig := len(origOut.evs)
	push(orig, suffix)
	push(restored, suffix)
	gotOrig := origOut.render()[markOrig:]
	gotRestored := restoredOut.render()
	if len(gotOrig) != len(gotRestored) {
		t.Fatalf("%s: restored emitted %d events, original %d\nrestored: %v\noriginal: %v",
			label, len(gotRestored), len(gotOrig), gotRestored, gotOrig)
	}
	for i := range gotOrig {
		if gotOrig[i] != gotRestored[i] {
			t.Fatalf("%s: suffix emission %d: restored %s, original %s", label, i, gotRestored[i], gotOrig[i])
		}
	}
	if a, b := encodeState(t, orig), encodeState(t, restored); !bytes.Equal(a, b) {
		t.Fatalf("%s: final states diverge after identical suffix input", label)
	}
}

func ints(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestScanOpRoundTrip(t *testing.T) {
	opRoundTrip(t, "scan",
		func(out sink) stateSaver { return &scanOp{out: out, bounded: true} },
		[]tvr.Event{tvr.InsertEvent(1, ints(1)), tvr.InsertEvent(5, ints(2))},
		[]tvr.Event{tvr.InsertEvent(9, ints(3))})
}

func TestDistinctOpRoundTrip(t *testing.T) {
	opRoundTrip(t, "distinct",
		func(out sink) stateSaver { return &distinctOp{out: out} },
		[]tvr.Event{
			tvr.InsertEvent(1, ints(7)), tvr.InsertEvent(2, ints(7)),
			tvr.InsertEvent(3, ints(8)), tvr.DeleteEvent(4, ints(8)),
		},
		[]tvr.Event{
			tvr.DeleteEvent(5, ints(7)), tvr.DeleteEvent(6, ints(7)), // 7 leaves the output here
			tvr.InsertEvent(7, ints(8)), // 8 re-enters
		})
}

func TestSetOpRoundTrip(t *testing.T) {
	for _, cfg := range []struct {
		name string
		op   sqlparser.SetOpKind
		all  bool
	}{
		{"intersect-all", sqlparser.Intersect, true},
		{"intersect", sqlparser.Intersect, false},
		{"except-all", sqlparser.Except, true},
		{"except", sqlparser.Except, false},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			// Drive both ports: prefix loads each side asymmetrically,
			// suffix flips multiplicities across the output threshold.
			origOut := &memSink{}
			a := newSetOp(&plan.SetOp{Op: cfg.op, All: cfg.all}, origOut)
			prefix := func(s *setOp) {
				for _, ev := range []tvr.Event{tvr.InsertEvent(1, ints(1)), tvr.InsertEvent(2, ints(1)), tvr.InsertEvent(3, ints(2))} {
					if err := push(s.port(0), ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := push(s.port(1), tvr.InsertEvent(4, ints(1))); err != nil {
					t.Fatal(err)
				}
			}
			prefix(a)
			restoredOut := &memSink{}
			b := newSetOp(&plan.SetOp{Op: cfg.op, All: cfg.all}, restoredOut)
			saverRoundTrip(t, a, b)
			mark := len(origOut.evs)
			suffix := func(s *setOp) {
				if err := push(s.port(1), tvr.InsertEvent(5, ints(2))); err != nil {
					t.Fatal(err)
				}
				if err := push(s.port(0), tvr.DeleteEvent(6, ints(1))); err != nil {
					t.Fatal(err)
				}
				if err := push(s.port(0), tvr.WatermarkEvent(7, 100)); err != nil {
					t.Fatal(err)
				}
				if err := push(s.port(1), tvr.WatermarkEvent(8, 200)); err != nil {
					t.Fatal(err)
				}
			}
			suffix(a)
			suffix(b)
			gotA := origOut.render()[mark:]
			gotB := restoredOut.render()
			if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
				t.Fatalf("suffix emissions differ:\noriginal: %v\nrestored: %v", gotA, gotB)
			}
			if !bytes.Equal(encodeState(t, a), encodeState(t, b)) {
				t.Fatal("final states diverge")
			}
		})
	}
}

// joinPlan builds a two-scan equi-join node for direct joinOp construction.
func joinPlan(kind sqlparser.JoinKind) *plan.Join {
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindInt64},
	)
	left := &plan.Scan{Name: "l", Sch: sch}
	right := &plan.Scan{Name: "r", Sch: sch}
	return &plan.Join{
		Left: left, Right: right, Kind: kind,
		LeftKeys: []int{0}, RightKeys: []int{0},
		Sch: sch.Concat(sch),
	}
}

func TestJoinOpRoundTrip(t *testing.T) {
	for _, kind := range []sqlparser.JoinKind{sqlparser.InnerJoin, sqlparser.LeftJoin, sqlparser.FullJoin} {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			node := joinPlan(kind)
			origOut := &memSink{}
			a := newJoinOp(node, origOut)
			feedPrefix := func(j *joinOp) {
				for _, ev := range []tvr.Event{tvr.InsertEvent(1, ints(1, 10)), tvr.InsertEvent(2, ints(2, 20))} {
					if err := push(j.port(0), ev); err != nil {
						t.Fatal(err)
					}
				}
				if err := push(j.port(1), tvr.InsertEvent(3, ints(1, 100))); err != nil {
					t.Fatal(err)
				}
			}
			feedPrefix(a)
			restoredOut := &memSink{}
			b := newJoinOp(node, restoredOut)
			saverRoundTrip(t, a, b)
			mark := len(origOut.evs)
			feedSuffix := func(j *joinOp) {
				// New matches on both sides, a retraction, and an unmatched
				// row transition (exercises outer-join match counting).
				if err := push(j.port(1), tvr.InsertEvent(4, ints(2, 200))); err != nil {
					t.Fatal(err)
				}
				if err := push(j.port(0), tvr.DeleteEvent(5, ints(1, 10))); err != nil {
					t.Fatal(err)
				}
				if err := push(j.port(1), tvr.InsertEvent(6, ints(1, 101))); err != nil {
					t.Fatal(err)
				}
			}
			feedSuffix(a)
			feedSuffix(b)
			gotA := origOut.render()[mark:]
			gotB := restoredOut.render()
			if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
				t.Fatalf("suffix emissions differ:\noriginal: %v\nrestored: %v", gotA, gotB)
			}
			if !bytes.Equal(encodeState(t, a), encodeState(t, b)) {
				t.Fatal("final states diverge")
			}
		})
	}
}

// TestJoinOpLoadCorruptBucketCount: a bucket count read from a corrupt
// stream ends the load at the end of the stream, not after that many
// iterations of an already-failed decoder.
func TestJoinOpLoadCorruptBucketCount(t *testing.T) {
	var buf bytes.Buffer
	enc := checkpoint.NewEncoder(&buf)
	newJoinOp(joinPlan(sqlparser.InnerJoin), &memSink{}).saveMergeState(enc)
	enc.Uvarint(1 << 62) // left-side buckets that never follow
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut the trailer too, so the stream ends right after the count.
	dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-4]))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- newJoinOp(joinPlan(sqlparser.InnerJoin), &memSink{}).LoadState(dec) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a join state with missing buckets loaded without error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("LoadState still running 10 s after the stream ended")
	}
}

// TestLoadAccRejectsNonFloatSum: a SUM's or AVG's float running sum that
// holds another kind (a BIGINT here) fails the load instead of loading that
// value's payload as float bits.
func TestLoadAccRejectsNonFloatSum(t *testing.T) {
	for _, acc := range []accumulator{newSumAcc(types.KindFloat64), &avgAcc{}} {
		var buf bytes.Buffer
		enc := checkpoint.NewEncoder(&buf)
		enc.Varint(0)
		enc.Value(types.NewInt(42))
		enc.Varint(1)
		enc.Bool(false)
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := loadAcc(dec, acc); err == nil {
			t.Errorf("%T loaded a BIGINT float running sum without error", acc)
		}
	}
}

// sessionWindowNode builds a SESSION window TVF over (v BIGINT, t TIMESTAMP).
func sessionWindowNode() *plan.WindowTVF {
	in := types.NewSchema(
		types.Column{Name: "v", Kind: types.KindInt64},
		types.Column{Name: "t", Kind: types.KindTimestamp, EventTime: true},
	)
	return &plan.WindowTVF{
		Input: &plan.Scan{Name: "s", Sch: in}, Fn: plan.SessionFn,
		TimeIdx: 1, Gap: 10 * types.Second,
		Sch: in, // output schema unused by the operator's state logic
	}
}

func tsRow(v int64, at types.Time) types.Row {
	return types.Row{types.NewInt(v), types.NewTimestamp(at)}
}

func TestSessionWindowOpRoundTrip(t *testing.T) {
	node := sessionWindowNode()
	opRoundTrip(t, "session-window",
		func(out sink) stateSaver { return newWindowOp(node, out) },
		[]tvr.Event{
			tvr.InsertEvent(1, tsRow(1, 1000)),
			tvr.InsertEvent(2, tsRow(2, 5000)),
			tvr.InsertEvent(3, tsRow(3, 30000)),
			tvr.DeleteEvent(4, tsRow(2, 5000)), // retraction reshapes session 1
		},
		[]tvr.Event{
			// A bridging timestamp merges the two sessions — the heaviest
			// retract/re-emit cascade the operator has.
			tvr.InsertEvent(5, tsRow(4, 18000)),
			tvr.InsertEvent(6, tsRow(5, 5000)), // re-insert of a vacated timestamp
		})
}

// aggNode builds GROUP BY k over (k BIGINT, v BIGINT) with every mergeable
// accumulator plus DISTINCT variants.
func aggNode(withEventTime bool) *plan.Aggregate {
	cols := []types.Column{
		{Name: "k", Kind: types.KindInt64},
		{Name: "v", Kind: types.KindInt64},
	}
	if withEventTime {
		cols[0] = types.Column{Name: "k", Kind: types.KindTimestamp, EventTime: true}
	}
	in := types.NewSchema(cols...)
	key := &plan.ColRef{Idx: 0, K: cols[0].Kind}
	arg := &plan.ColRef{Idx: 1, K: types.KindInt64}
	outCols := []types.Column{
		cols[0],
		{Name: "c", Kind: types.KindInt64},
		{Name: "s", Kind: types.KindInt64},
		{Name: "a", Kind: types.KindFloat64},
		{Name: "mn", Kind: types.KindInt64},
		{Name: "mx", Kind: types.KindInt64},
		{Name: "dc", Kind: types.KindInt64},
	}
	return &plan.Aggregate{
		Input: &plan.Scan{Name: "s", Sch: in},
		Keys:  []plan.Scalar{key},
		Aggs: []plan.AggCall{
			{Kind: plan.AggCountStar, K: types.KindInt64},
			{Kind: plan.AggSum, Arg: arg, K: types.KindInt64},
			{Kind: plan.AggAvg, Arg: arg, K: types.KindFloat64},
			{Kind: plan.AggMin, Arg: arg, K: types.KindInt64},
			{Kind: plan.AggMax, Arg: arg, K: types.KindInt64},
			{Kind: plan.AggCount, Arg: arg, Distinct: true, K: types.KindInt64},
		},
		Sch: types.NewSchema(outCols...),
	}
}

func TestAggOpRoundTrip(t *testing.T) {
	node := aggNode(false)
	opRoundTrip(t, "agg",
		func(out sink) stateSaver { return newAggOp(node, out) },
		[]tvr.Event{
			tvr.InsertEvent(1, ints(1, 10)),
			tvr.InsertEvent(2, ints(1, 30)),
			tvr.InsertEvent(3, ints(2, 5)),
			tvr.DeleteEvent(4, ints(1, 30)), // MAX retraction: lazy extremum recompute state
		},
		[]tvr.Event{
			tvr.InsertEvent(5, ints(1, 10)), // duplicate: DISTINCT count unchanged
			tvr.InsertEvent(6, ints(2, 50)),
			tvr.DeleteEvent(7, ints(2, 5)),
			tvr.DeleteEvent(8, ints(2, 50)), // group 2 empties: output row retracted
		})
}

// TestAggOpWatermarkRoundTrip covers the dead-group (watermark-completed)
// path: completed groups keep dropping late data after a restore.
func TestAggOpWatermarkRoundTrip(t *testing.T) {
	node := aggNode(true)
	tsk := func(at types.Time, v int64) types.Row {
		return types.Row{types.NewTimestamp(at), types.NewInt(v)}
	}
	opRoundTrip(t, "agg-watermark",
		func(out sink) stateSaver { return newAggOp(node, out) },
		[]tvr.Event{
			tvr.InsertEvent(1, tsk(1000, 10)),
			tvr.InsertEvent(2, tsk(60000, 20)),
			tvr.WatermarkEvent(3, 30000), // completes (and frees) group 1000
		},
		[]tvr.Event{
			tvr.InsertEvent(4, tsk(1000, 99)),  // late: must be dropped post-restore
			tvr.InsertEvent(5, tsk(60000, 25)), // live group keeps accumulating
			tvr.WatermarkEvent(6, 90000),       // completes group 60000
			tvr.InsertEvent(7, tsk(60000, 1)),  // late for the newly dead group
		})
}

// wmSchema is an output schema with one windowed event-time column, so the
// EMIT operators group by it.
func wmSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "wend", Kind: types.KindTimestamp, EventTime: true, Windowed: true},
		types.Column{Name: "v", Kind: types.KindInt64},
	)
}

func wRow(wend types.Time, v int64) types.Row {
	return types.Row{types.NewTimestamp(wend), types.NewInt(v)}
}

func TestEmitAfterWatermarkOpRoundTrip(t *testing.T) {
	sch := wmSchema()
	opRoundTrip(t, "emit-after-watermark",
		func(out sink) stateSaver { return newEmitAfterWatermark(sch, out) },
		[]tvr.Event{
			tvr.InsertEvent(1, wRow(1000, 1)),
			tvr.InsertEvent(2, wRow(2000, 2)),
			tvr.DeleteEvent(3, wRow(1000, 1)),
			tvr.InsertEvent(4, wRow(1000, 7)),
			tvr.WatermarkEvent(5, 1500), // group 1000 materializes and closes
		},
		[]tvr.Event{
			tvr.InsertEvent(6, wRow(1000, 9)), // late for the closed group
			tvr.InsertEvent(7, wRow(2000, 3)),
			tvr.WatermarkEvent(8, 2500), // group 2000 materializes
		})
}

func TestEmitAfterDelayOpRoundTrip(t *testing.T) {
	sch := wmSchema()
	for _, alsoWM := range []bool{false, true} {
		t.Run(fmt.Sprintf("alsoWatermark=%v", alsoWM), func(t *testing.T) {
			opRoundTrip(t, "emit-after-delay",
				func(out sink) stateSaver {
					return newEmitAfterDelay(sch, 5*types.Second, alsoWM, out)
				},
				[]tvr.Event{
					// Two armed timers pending at the checkpoint.
					tvr.InsertEvent(1000, wRow(1000, 1)),
					tvr.InsertEvent(2000, wRow(2000, 2)),
					tvr.InsertEvent(3000, wRow(1000, 3)),
				},
				[]tvr.Event{
					// Heartbeats fire the restored timers; more input
					// re-arms; a watermark closes group 1000 when alsoWM.
					tvr.HeartbeatEvent(6500),
					tvr.InsertEvent(7000, wRow(1000, 4)),
					tvr.WatermarkEvent(8000, 1500),
					tvr.HeartbeatEvent(13000),
				})
		})
	}
}

// errDuplicateKey is the refusal every keyed section's load shares
// (tvr.LoadStore).
var errDuplicateKey = tvr.ErrDuplicateKey

// TestLoadStateRejectsDuplicateGroup: a snapshot that lists one key twice
// in any keyed section (a group; a row of an EMIT AFTER WATERMARK group, of
// DISTINCT or of a set operation; a join bucket; a value of a MIN/MAX or
// DISTINCT-aggregate multiset; a session window's timestamp) is corrupt, and each operator refuses it
// rather than holding two live slots under one key or keeping either copy.
func TestLoadStateRejectsDuplicateGroup(t *testing.T) {
	node := aggNode(false)
	sch := wmSchema()
	// aggGroup writes one group whose accumulator at index dup lists the
	// value 5 twice in its multiset; the others are empty.
	aggGroup := func(dup int) func(enc *checkpoint.Encoder) {
		return func(enc *checkpoint.Encoder) {
			enc.Time(types.MinTime)
			enc.Int(0)
			enc.Int(0)
			enc.Uvarint(1)
			enc.Row(ints(1))
			enc.Int(2)
			enc.Bool(false)
			enc.Row(nil)
			for i, call := range node.Aggs {
				acc := newAccumulator(call)
				if i != dup {
					saveAcc(enc, acc)
					continue
				}
				if _, ok := acc.(*minMaxAcc); ok {
					enc.Varint(2)
					enc.Bool(false)
					enc.Value(types.Null())
				}
				enc.Uvarint(2)
				for j := 0; j < 2; j++ {
					enc.Value(types.NewInt(5))
					enc.Int(1)
				}
				if d, ok := acc.(*distinctAcc); ok {
					saveAcc(enc, d.inner)
				}
			}
		}
	}
	setOpNode := &plan.SetOp{Op: sqlparser.Intersect, All: true}
	mergeState := func(enc *checkpoint.Encoder) { newUnionOp(2, &memSink{}).saveMergeState(enc) }
	emptyBag := func(enc *checkpoint.Encoder) { tvr.NewRelation().SaveState(enc) }
	bag := func(rows ...types.Row) func(*checkpoint.Encoder) {
		return func(enc *checkpoint.Encoder) {
			enc.Section("tvr.Relation")
			enc.Uvarint(uint64(len(rows)))
			for _, r := range rows {
				enc.Row(r)
				enc.Uvarint(1)
			}
		}
	}
	for _, c := range []struct {
		name  string
		op    stateSaver
		write func(enc *checkpoint.Encoder)
	}{
		{"aggregate", newAggOp(node, &memSink{}), func(enc *checkpoint.Encoder) {
			enc.Time(types.MinTime)
			enc.Int(0)
			enc.Int(0)
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Row(ints(1))
				enc.Int(0)
				enc.Bool(false)
				enc.Row(nil)
				for _, call := range node.Aggs {
					saveAcc(enc, newAccumulator(call))
				}
			}
		}},
		{"emit-after-watermark group", newEmitAfterWatermark(sch, &memSink{}), func(enc *checkpoint.Encoder) {
			enc.Time(types.MinTime)
			enc.Int(0)
			enc.Int(0)
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Row(wRow(1000, int64(i)))
				enc.Bool(false)
				bag(wRow(1000, int64(i)))(enc)
			}
		}},
		{"emit-after-watermark row", newEmitAfterWatermark(sch, &memSink{}), func(enc *checkpoint.Encoder) {
			enc.Time(types.MinTime)
			enc.Int(0)
			enc.Int(0)
			enc.Uvarint(1)
			enc.Row(wRow(1000, 1))
			enc.Bool(false)
			bag(wRow(1000, 1), wRow(1000, 1))(enc)
		}},
		{"emit-after-delay", newEmitAfterDelay(sch, types.Second, true, &memSink{}), func(enc *checkpoint.Encoder) {
			enc.Time(types.MinTime)
			enc.Int(0)
			enc.Int(0)
			enc.Int(0)
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Row(wRow(1000, int64(i)))
				enc.Bool(false)
				enc.Bool(false)
				emptyBag(enc)
				emptyBag(enc)
			}
			enc.Uvarint(0)
		}},
		{"distinct", &distinctOp{out: &memSink{}}, func(enc *checkpoint.Encoder) {
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Row(ints(7))
				enc.Int(1)
			}
		}},
		{"set operation", newSetOp(setOpNode, &memSink{}), func(enc *checkpoint.Encoder) {
			mergeState(enc)
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Row(ints(7))
				enc.Int(1)
				enc.Int(1)
				enc.Int(1)
			}
		}},
		{"join bucket", newJoinOp(joinPlan(sqlparser.InnerJoin), &memSink{}), func(enc *checkpoint.Encoder) {
			mergeState(enc)
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Uvarint(1)
				enc.Row(ints(1, int64(i)))
				enc.Int(1)
				enc.Int(0)
			}
			enc.Uvarint(0)
		}},
		{"min multiset", newAggOp(node, &memSink{}), aggGroup(3)},
		{"distinct-aggregate multiset", newAggOp(node, &memSink{}), aggGroup(5)},
		{"session window", newWindowOp(sessionWindowNode(), &memSink{}), func(enc *checkpoint.Encoder) {
			enc.Uvarint(2)
			for i := 0; i < 2; i++ {
				enc.Time(1000)
				enc.Int(1)
				enc.Uvarint(1)
				enc.Row(tsRow(int64(i), 1000))
				enc.Int(1)
			}
		}},
	} {
		var buf bytes.Buffer
		enc := checkpoint.NewEncoder(&buf)
		c.write(enc)
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
		dec, err := checkpoint.NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.op.LoadState(dec); !errors.Is(err, errDuplicateKey) {
			t.Errorf("%s: a snapshot listing an entry twice loaded with error %v, want %v", c.name, err, errDuplicateKey)
		}
	}
}

func TestUnionOpRoundTrip(t *testing.T) {
	origOut := &memSink{}
	a := newUnionOp(2, origOut)
	if err := push(a.port(0), tvr.WatermarkEvent(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := push(a.port(1), tvr.HeartbeatEvent(2)); err != nil {
		t.Fatal(err)
	}
	restoredOut := &memSink{}
	b := newUnionOp(2, restoredOut)
	saverRoundTrip(t, a, b)
	mark := len(origOut.evs)
	for _, u := range []*unionOp{a, b} {
		// The merged watermark only advances when BOTH ports pass 100 —
		// restored per-port state decides this.
		if err := push(u.port(1), tvr.WatermarkEvent(3, 150)); err != nil {
			t.Fatal(err)
		}
		// A stale heartbeat must stay deduplicated after restore.
		if err := push(u.port(0), tvr.HeartbeatEvent(2)); err != nil {
			t.Fatal(err)
		}
	}
	gotA := origOut.render()[mark:]
	gotB := restoredOut.render()
	if fmt.Sprint(gotA) != fmt.Sprint(gotB) {
		t.Fatalf("suffix emissions differ:\noriginal: %v\nrestored: %v", gotA, gotB)
	}
}

// TestCollectorRoundTrip: the collector resumes Drain at the first
// undelivered event, writes its relation slot empty, and still loads a
// snapshot whose relation slot carries the whole output relation (the layout
// from before the collector stopped keeping one), discarding that relation.
func TestCollectorRoundTrip(t *testing.T) {
	newCollector := func() *Collector { return &Collector{wm: types.MinTime} }
	pushed := []tvr.Event{
		tvr.InsertEvent(1, wRow(1000, 1)),
		tvr.InsertEvent(2, wRow(2000, 2)),
		tvr.WatermarkEvent(3, 1500),
	}
	tail := tvr.InsertEvent(4, wRow(3000, 3))
	a := newCollector()
	for _, ev := range pushed {
		if err := push(a, ev); err != nil {
			t.Fatal(err)
		}
	}
	a.drain() // deliver the first two
	if err := push(a, tail); err != nil {
		t.Fatal(err) // undrained tail of one event
	}
	b := newCollector()
	saverRoundTrip(t, a, b)
	gotTail := b.drain()
	if len(gotTail) != 1 || gotTail[0].String() != tail.String() {
		t.Fatalf("restored drain = %v, want just the undelivered tail", gotTail)
	}
	if b.watermark() != 1500 {
		t.Fatalf("restored watermark = %v, want 1500", b.watermark())
	}
	if b.outN != a.outN {
		t.Fatalf("restored outN = %d, want %d", b.outN, a.outN)
	}

	saved := encodeState(t, a)
	dec, err := checkpoint.NewDecoder(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	slot := tvr.NewRelation()
	if err := slot.LoadState(dec); err != nil {
		t.Fatal(err)
	}
	if slot.Len() != 0 {
		t.Fatalf("checkpointed relation slot holds %d rows, want 0", slot.Len())
	}

	// The older layout: the same counters and tail behind a full relation.
	full := tvr.NewRelation()
	for _, ev := range append(pushed, tail) {
		if err := full.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	var old bytes.Buffer
	enc := checkpoint.NewEncoder(&old)
	full.SaveState(enc)
	enc.Int(a.outN)
	enc.Time(a.wm)
	tvr.SaveChangelog(enc, tvr.Changelog{tail})
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err = checkpoint.NewDecoder(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c := newCollector()
	if err := c.LoadState(dec); err != nil {
		t.Fatalf("older collector layout no longer loads: %v", err)
	}
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeState(t, c), saved) {
		t.Fatal("collector restored from the older layout re-saves differently")
	}
}
