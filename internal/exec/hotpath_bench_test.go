package exec

// Micro-benchmarks guarding the hot-path allocation work: the keyed
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
	one := make([]tvr.Event, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = tvr.InsertEvent(types.Time(i), rows[i%len(rows)])
		if err := agg.PushBatch(one); err != nil {
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

// benchQ4Plan is NEXMark Q4's shape over the S/R streams: auctions (S: id,
// category) join bids (R: auction, price) on the auction id, MAX(price) per
// auction, and AVG of those per category.
func benchQ4Plan(t testing.TB) *plan.PlannedQuery {
	return planRechunkSQL(t, `
SELECT Q.c, AVG(Q.final) AS avgPrice
FROM (
  SELECT a.k AS id, a.v AS c, MAX(b.v) AS final
  FROM S a JOIN R b ON a.k = b.k
  GROUP BY a.k, a.v
) Q
GROUP BY Q.c`)
}

// BenchmarkBatchPush measures the batched hot path end to end: one PushBatch
// of 512 events per iteration, against (a) the Q1-shaped stateless chain
// (filter -> project with integer arithmetic), (b) the keyed aggregate and
// (c) the Q4-shaped join -> aggregate -> aggregate, with bids arriving for 32
// auctions already in the join. ns/op divided by 512 is the per-event cost the
// serial driver pays once the run merge hands it whole batches.
func BenchmarkBatchPush(b *testing.B) {
	keyed := batchBenchEvents(512, 32, 100)
	auctions := make([]tvr.Event, 32)
	for i := range auctions {
		auctions[i] = tvr.InsertEvent(0, types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4)), types.NewTimestamp(0)})
	}
	bids := make([]tvr.Event, 512)
	for i := range bids {
		at := types.Time(i)
		bids[i] = tvr.InsertEvent(at, types.Row{types.NewInt(int64(i % 32)), types.NewInt(100), types.NewTimestamp(at)})
	}
	shapes := []struct {
		name string
		pq   *plan.PlannedQuery
		warm []tvr.Event // pushed into scan "s" before the clock starts
		scan string      // the scan each iteration's batch enters
		evs  []tvr.Event
	}{
		{"q1-chain", batchChainPlan(b), nil, "s", keyed},
		{"keyed-agg", benchScanPlan(), nil, "s", keyed},
		{"q4-join-agg", benchQ4Plan(b), auctions, "r", bids},
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
			if err := p.scans["s"][0].PushBatch(shape.warm); err != nil {
				b.Fatal(err)
			}
			scan := p.scans[shape.scan][0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scan.PushBatch(shape.evs); err != nil {
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
					if err := push(agg, tvr.InsertEvent(wm, row)); err != nil {
						b.Fatal(err)
					}
				}
				if err := push(agg, tvr.WatermarkEvent(wm, wm)); err != nil {
					b.Fatal(err)
				}
			}
			for done := 0; done < c.closed; done += closing {
				round(closing)
			}
			far := types.NewTimestamp(types.MaxTime / 2)
			for k := 0; k < c.open; k++ {
				if err := push(agg, tvr.InsertEvent(wm, types.Row{types.NewInt(int64(k)), far, types.NewInt(1)})); err != nil {
					b.Fatal(err)
				}
			}
			if agg.idx.freed != c.closed || agg.groups.Len() != c.open {
				b.Fatalf("set-up left %d closed, %d open; want %d, %d", agg.idx.freed, agg.groups.Len(), c.closed, c.open)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(closing)
			}
			b.StopTimer()
			if agg.groups.Len() != c.open {
				b.Fatalf("%d groups held after the run, want %d", agg.groups.Len(), c.open)
			}
		})
	}
}

// TestKeyedHotPathAllocFree pins the 0-allocs/op property of the keyed
// aggregate's steady-state lookup: once every group exists and the incoming
// value does not change the MAX, a PushBatch costs zero heap allocations —
// key encoding reuses the scratch buffer, the group resolves through the
// run cache or an allocation-free store lookup, and the suppressed reemit
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

func (n *nullSink) PushBatch([]tvr.Event) error { return nil }
func (n *nullSink) Finish() error               { return nil }

// windowedAggSQL is the repository benchmark's windowed_agg query: per-auction
// 10 s Tumble windows, MAX(price), materialized once per window by EMIT
// STREAM AFTER WATERMARK.
const windowedAggSQL = `
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '10' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`

// TestWindowedAggAllocs pins what opening, updating and closing a window
// group costs on the heap. Every bid of a batch opens its own (auction,
// window) group, as nearly every bid of the windowed_agg workload does, and
// the batch's closing watermark materializes and evicts the previous batch's
// groups, so each event pays for one group's whole life: its Tumble row, the
// aggregate group with its MAX state, completion-index entry and output row,
// and the row's place in its window's EMIT AFTER WATERMARK bag. The groups'
// slots, keys, accumulators and bag entries live in keyed stores that reuse
// what closed groups freed, so it reads about 1.02: the output row, plus the
// batch's share of its Tumble block. The ceiling of 2 leaves room for noise
// but not for a heap struct, a key string or a row copy coming back per
// group, each of which costs at least one more.
func TestWindowedAggAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const (
		perBatch = 250
		ceiling  = 2.0
	)
	p, err := Compile(planRechunkSQL(t, windowedAggSQL))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	window := types.Time(10 * types.Second)
	batch := func(b int) []Source {
		log := make(tvr.Changelog, 0, perBatch+1)
		start := types.Time(b) * window
		for i := 0; i < perBatch; i++ {
			at := start + types.Time(i)
			log = append(log, tvr.InsertEvent(at, types.Row{
				types.NewInt(int64(b*perBatch + i)), types.NewInt(7),
				types.NewInt(int64(100 + i)), types.NewTimestamp(at),
			}))
		}
		// Closes the previous batch's windows, which end at start.
		log = append(log, tvr.WatermarkEvent(start+perBatch, start))
		return []Source{{Name: "Bid", Log: log}}
	}
	const runs = 20
	batches := make([][]Source, runs+3)
	for b := range batches {
		batches[b] = batch(b)
	}
	next := 0
	feed := func() {
		if err := p.Feed(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if out := p.Drain(); next > 1 && len(out) != perBatch {
			t.Fatalf("batch %d emitted %d rows, want %d window rows", next-1, len(out), perBatch)
		}
	}
	feed() // warms the operators' scratch and pend buffers
	feed()
	perEvent := testing.AllocsPerRun(runs, feed) / perBatch
	t.Logf("%.2f allocs per event", perEvent)
	if perEvent > ceiling {
		t.Fatalf("windowed aggregation costs %.2f allocs per event, want at most %v", perEvent, ceiling)
	}
}
