package exec

// Micro-benchmarks guarding the hot-path allocation work: routing-key
// hashing must not materialize a per-delivery string, and the keyed
// aggregate-group lookup must stay allocation-free for existing groups.
// Run with -benchmem; the wins show up as 0 allocs/op on the lookup paths.

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/tvr"
	"repro/internal/types"
)

func benchScanPlan() *plan.PlannedQuery {
	sch := types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "name", Kind: types.KindString},
	)
	scan := &plan.Scan{Name: "s", Sch: sch, Stream: true}
	return &plan.PlannedQuery{Root: &plan.Aggregate{
		Input: scan,
		Keys:  []plan.Scalar{&plan.ColRef{Idx: 0, K: types.KindInt64}},
		Aggs:  []plan.AggCall{{Kind: plan.AggCountStar, K: types.KindInt64}},
		Sch: types.NewSchema(
			types.Column{Name: "key", Kind: types.KindInt64},
			types.Column{Name: "n", Kind: types.KindInt64},
		),
	}}
}

// BenchmarkRouteHash measures the per-delivery partition routing: FNV-1a over
// the key columns encoded into the pipeline's reusable scratch buffer.
func BenchmarkRouteHash(b *testing.B) {
	pp, err := CompilePartitioned(benchScanPlan(), 4)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]types.Row, 64)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i * 7)),
			types.NewInt(int64(i)),
			types.NewString("abcdefgh"),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		d := delivery{seq: i, ev: tvr.InsertEvent(types.Time(i), rows[i%len(rows)])}
		sink += pp.route(d)
	}
	_ = sink
}

// BenchmarkAggGroupUpdate measures the aggregate operator's keyed group
// update — key encoding into the scratch buffer, allocation-free map lookup,
// and accumulator update — over a fixed working set of groups.
func BenchmarkAggGroupUpdate(b *testing.B) {
	pq := benchScanPlan()
	agg := newAggOp(pq.Root.(*plan.Aggregate), &nullSink{})
	rows := make([]types.Row, 128)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i % 32)),
			types.NewInt(int64(i)),
			types.NewString("abcdefgh"),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := tvr.InsertEvent(types.Time(i), rows[i%len(rows)])
		if err := agg.Push(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMaxScanPlan is the keyed MAX variant: once every group's running MAX
// is established, further sub-max pushes are suppressed emissions — the pure
// group-lookup hot path.
func benchMaxScanPlan() *plan.PlannedQuery {
	sch := types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "name", Kind: types.KindString},
	)
	scan := &plan.Scan{Name: "s", Sch: sch, Stream: true}
	return &plan.PlannedQuery{Root: &plan.Aggregate{
		Input: scan,
		Keys:  []plan.Scalar{&plan.ColRef{Idx: 0, K: types.KindInt64}},
		Aggs:  []plan.AggCall{{Kind: plan.AggMax, Arg: &plan.ColRef{Idx: 1, K: types.KindInt64}, K: types.KindInt64}},
		Sch: types.NewSchema(
			types.Column{Name: "key", Kind: types.KindInt64},
			types.Column{Name: "maxPrice", Kind: types.KindInt64},
		),
	}}
}

// batchBenchEvents builds one reusable batch of keyed insert events.
func batchBenchEvents(n, groups, price int) []tvr.Event {
	evs := make([]tvr.Event, n)
	for i := range evs {
		evs[i] = tvr.InsertEvent(types.Time(i), types.Row{
			types.NewInt(int64(i % groups)),
			types.NewInt(int64(price)),
			types.NewString("abcdefgh"),
		})
	}
	return evs
}

// BenchmarkBatchPush measures the batched hot path end to end: one PushBatch
// of 512 events per iteration, against (a) the Q1-shaped stateless chain
// (filter -> project with integer arithmetic) and (b) the keyed aggregate.
// ns/op divided by 512 is the per-event cost the serial driver pays once the
// run merge hands it whole batches.
func BenchmarkBatchPush(b *testing.B) {
	shapes := []struct {
		name string
		pq   *plan.PlannedQuery
	}{
		{"q1-chain", batchChainPlan(b)},
		{"keyed-agg", benchScanPlan()},
	}
	for _, shape := range shapes {
		shape := shape
		b.Run(shape.name, func(b *testing.B) {
			p, err := Compile(shape.pq)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Start(); err != nil {
				b.Fatal(err)
			}
			scan := p.scans["s"][0]
			evs := batchBenchEvents(512, 32, 100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pushBatch(scan, evs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWindowedPlan is the windowed_agg shape reduced to its two completing
// operators: GROUP BY (key, wend) MAX(price) over rows that already carry
// their window end, materialized by EMIT AFTER WATERMARK.
func benchWindowedPlan() *plan.Aggregate {
	in := types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "wend", Kind: types.KindTimestamp, EventTime: true},
		types.Column{Name: "price", Kind: types.KindInt64},
	)
	return &plan.Aggregate{
		Input: &plan.Scan{Name: "s", Sch: in, Stream: true},
		Keys: []plan.Scalar{
			&plan.ColRef{Idx: 0, K: types.KindInt64},
			&plan.ColRef{Idx: 1, K: types.KindTimestamp},
		},
		Aggs: []plan.AggCall{{Kind: plan.AggMax, Arg: &plan.ColRef{Idx: 2, K: types.KindInt64}, K: types.KindInt64}},
		Sch:  types.NewSchema(in.Cols[0], in.Cols[1], types.Column{Name: "maxPrice", Kind: types.KindInt64}),
	}
}

// BenchmarkWatermarkAdvance measures one watermark round — ten new groups
// open, the watermark passes them, they materialize and are evicted — through
// aggOp -> emitAfterWatermarkOp, against different amounts of history: 1k vs
// 100k groups closed earlier (the per-round cost must not depend on it), and
// 100k groups still open beside the ten that close.
func BenchmarkWatermarkAdvance(b *testing.B) {
	const closing = 10
	for _, c := range []struct {
		name         string
		closed, open int
	}{
		{"closed=1k", 1_000, 0},
		{"closed=100k", 100_000, 0},
		{"open=100k", 0, 100_000},
	} {
		b.Run(c.name, func(b *testing.B) {
			node := benchWindowedPlan()
			agg := newAggOp(node, newEmitAfterWatermark(node.Sch, &nullSink{}))
			wm := types.Time(0)
			round := func(groups int) {
				wm += types.Time(types.Second)
				for k := 0; k < groups; k++ {
					row := types.Row{types.NewInt(int64(k)), types.NewTimestamp(wm), types.NewInt(int64(k))}
					if err := agg.Push(tvr.InsertEvent(wm, row)); err != nil {
						b.Fatal(err)
					}
				}
				if err := agg.Push(tvr.WatermarkEvent(wm, wm)); err != nil {
					b.Fatal(err)
				}
			}
			for done := 0; done < c.closed; done += closing {
				round(closing)
			}
			far := types.NewTimestamp(types.MaxTime / 2)
			for k := 0; k < c.open; k++ {
				if err := agg.Push(tvr.InsertEvent(wm, types.Row{types.NewInt(int64(k)), far, types.NewInt(1)})); err != nil {
					b.Fatal(err)
				}
			}
			if agg.idx.freed != c.closed || len(agg.groups) != c.open {
				b.Fatalf("set-up left %d closed, %d open; want %d, %d", agg.idx.freed, len(agg.groups), c.closed, c.open)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(closing)
			}
			b.StopTimer()
			if len(agg.groups) != c.open {
				b.Fatalf("%d groups held after the run, want %d", len(agg.groups), c.open)
			}
		})
	}
}

// TestKeyedHotPathAllocFree pins the 0-allocs/op property of the keyed
// aggregate's steady-state lookup: once every group exists and the incoming
// value does not change the MAX, a PushBatch costs zero heap allocations —
// key encoding reuses the scratch buffer, the group resolves through the
// run cache or an allocation-free map lookup, and the suppressed reemit
// builds its candidate row in reused scratch.
func TestKeyedHotPathAllocFree(t *testing.T) {
	pq := benchMaxScanPlan()
	agg := newAggOp(pq.Root.(*plan.Aggregate), &nullSink{})
	// Establish every group's MAX at 1000, then measure sub-max pushes.
	warm := batchBenchEvents(64, 32, 1000)
	cold := batchBenchEvents(512, 32, 100)
	if err := agg.PushBatch(warm); err != nil {
		t.Fatal(err)
	}
	if err := agg.PushBatch(cold); err != nil {
		t.Fatal(err) // also warms pend/scratch capacities
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := agg.PushBatch(cold); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state keyed PushBatch allocates %v allocs/run, want 0", allocs)
	}
}

// nullSink discards pushes (isolates the operator under benchmark).
type nullSink struct{}

func (n *nullSink) Push(tvr.Event) error { return nil }
func (n *nullSink) Finish() error        { return nil }
