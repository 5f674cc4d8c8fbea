package exec

// White-box property tests for the batch contract: delivering the same event
// sequence to a pipeline in ANY re-chunking of PushBatch calls — size-1,
// whole-log, mixed, random — must produce byte-identical output, for every
// operator family. The reference for each shape is a golden file of its
// per-event output (testdata/rechunk_*.golden), recorded while operators still
// had a separate per-event entry point, so a batch path is checked against
// that path and not only against itself. Regenerate deliberately with
//
//	UPDATE_GOLDEN=1 go test ./internal/exec -run TestPushBatchRechunkEquivalence
//
// The number of events per Pipeline.Feed call (the other axis that decides
// how runs coalesce into batches) must be equally invisible.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// batchChainPlan is a Q1-shaped stateless chain: scan -> filter -> project
// with integer arithmetic, the currency-conversion hot path.
func batchChainPlan(t testing.TB) *plan.PlannedQuery {
	t.Helper()
	sch := types.NewSchema(
		types.Column{Name: "key", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "name", Kind: types.KindString},
	)
	scan := &plan.Scan{Name: "s", Sch: sch, Stream: true}
	cond, err := plan.NewBinOp(sqlparser.OpLt, &plan.ColRef{Idx: 1, K: types.KindInt64}, &plan.Const{Val: types.NewInt(900)})
	if err != nil {
		t.Fatal(err)
	}
	mul, err := plan.NewBinOp(sqlparser.OpMul, &plan.ColRef{Idx: 1, K: types.KindInt64}, &plan.Const{Val: types.NewInt(908)})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := plan.NewBinOp(sqlparser.OpDiv, mul, &plan.Const{Val: types.NewInt(1000)})
	if err != nil {
		t.Fatal(err)
	}
	return &plan.PlannedQuery{Root: &plan.Project{
		Input: &plan.Filter{Input: scan, Cond: cond},
		Exprs: []plan.Scalar{&plan.ColRef{Idx: 0, K: types.KindInt64}, conv},
		Sch: types.NewSchema(
			types.Column{Name: "key", Kind: types.KindInt64},
			types.Column{Name: "price", Kind: types.KindInt64},
		),
	}}
}

// batchEvents generates a nondecreasing-ptime log with control events mixed
// in: batches may legally carry watermarks and heartbeats between data
// events, and the operators must handle them in position.
func batchEvents(n int) []tvr.Event {
	evs := make([]tvr.Event, 0, n)
	for i := 0; i < n; i++ {
		pt := types.Time(int64(i) * 125) // ms; nondecreasing
		switch {
		case i > 0 && i%50 == 0:
			evs = append(evs, tvr.WatermarkEvent(pt, pt-types.Time(2*types.Second)))
		case i > 0 && i%83 == 0:
			evs = append(evs, tvr.HeartbeatEvent(pt))
		default:
			row := types.Row{
				types.NewInt(int64(i % 32)),
				types.NewInt(int64(i * 13 % 1000)),
				types.NewString("abcdefgh"),
			}
			evs = append(evs, tvr.InsertEvent(pt, row))
		}
	}
	return evs
}

// rechunkCatalog resolves the two streams S and R, both (k, v, t) with t the
// event-time column, that the SQL-built shapes read, and NEXMark's Bid stream
// (auction, bidder, price, dateTime) for the benchmark's windowed query.
type rechunkCatalog struct{}

func (rechunkCatalog) Resolve(name string) (*plan.Relation, error) {
	switch strings.ToUpper(name) {
	case "S", "R":
		return &plan.Relation{Name: strings.ToUpper(name), Unbounded: true, Schema: types.NewSchema(
			types.Column{Name: "k", Kind: types.KindInt64},
			types.Column{Name: "v", Kind: types.KindInt64},
			types.Column{Name: "t", Kind: types.KindTimestamp, EventTime: true},
		)}, nil
	case "BID":
		return &plan.Relation{Name: "Bid", Unbounded: true, Schema: types.NewSchema(
			types.Column{Name: "auction", Kind: types.KindInt64},
			types.Column{Name: "bidder", Kind: types.KindInt64},
			types.Column{Name: "price", Kind: types.KindInt64},
			types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
		)}, nil
	}
	return nil, fmt.Errorf("no relation %q", name)
}

// planRechunkSQL plans and optimizes sql against rechunkCatalog.
func planRechunkSQL(t testing.TB, sql string) *plan.PlannedQuery {
	t.Helper()
	q, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pq, err := plan.New(rechunkCatalog{}, plan.Config{AllowUnboundedGroupBy: true}).Plan(q)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return opt.Optimize(pq)
}

// srcEvent is one event of a multi-source delivery sequence.
type srcEvent struct {
	src string
	ev  tvr.Event
}

// rechunkLog generates a delivery sequence over S and R with one event per
// ptime (so the merge order is unambiguous), in same-source runs of random
// length: inserts with event times around the watermark (some late),
// retractions of live rows, per-source watermarks, and heartbeats.
func rechunkLog(n int) []srcEvent {
	rng := rand.New(rand.NewSource(27))
	live := map[string][]types.Row{}
	src := "S"
	log := make([]srcEvent, 0, n)
	for i := 1; i <= n; i++ {
		pt := types.Time(int64(i) * int64(types.Second))
		if rng.Intn(4) == 0 {
			src = map[string]string{"S": "R", "R": "S"}[src]
		}
		var ev tvr.Event
		switch r := rng.Intn(20); {
		case r < 2:
			ev = tvr.WatermarkEvent(pt, pt-4*types.Time(types.Second))
		case r < 3:
			ev = tvr.HeartbeatEvent(pt)
		case r < 7 && len(live[src]) > 0:
			j := rng.Intn(len(live[src]))
			ev = tvr.DeleteEvent(pt, live[src][j])
			live[src] = append(live[src][:j], live[src][j+1:]...)
		default:
			at := pt - types.Time(int64(rng.Intn(6))*int64(types.Second))
			row := types.Row{types.NewInt(int64(rng.Intn(4))), types.NewInt(int64(rng.Intn(20))), types.NewTimestamp(at)}
			live[src] = append(live[src], row)
			ev = tvr.InsertEvent(pt, row)
		}
		log = append(log, srcEvent{src: src, ev: ev})
	}
	return log
}

// onSource tags a single-source log.
func onSource(name string, evs []tvr.Event) []srcEvent {
	out := make([]srcEvent, len(evs))
	for i, ev := range evs {
		out[i] = srcEvent{src: name, ev: ev}
	}
	return out
}

// runRechunked compiles pq and feeds log through Pipeline.Feed in chunks of
// the repeating size pattern; within a chunk the driver dispatches each
// maximal same-source run as one batch. It returns the drained output, one
// event per line, and the final output watermark.
func runRechunked(t *testing.T, pq *plan.PlannedQuery, log []srcEvent, chunks []int) string {
	t.Helper()
	p, err := Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	render := func(out tvr.Changelog) {
		for _, ev := range out {
			sb.WriteString(ev.String())
			sb.WriteByte('\n')
		}
	}
	for i, ci := 0, 0; i < len(log); ci++ {
		end := min(i+chunks[ci%len(chunks)], len(log))
		var batch []Source
		at := map[string]int{}
		for _, se := range log[i:end] {
			j, ok := at[se.src]
			if !ok {
				j = len(batch)
				at[se.src] = j
				batch = append(batch, Source{Name: se.src})
			}
			batch[j].Log = append(batch[j].Log, se.ev)
		}
		if err := p.Feed(batch); err != nil {
			t.Fatal(err)
		}
		render(p.Drain())
		i = end
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	render(p.Drain())
	fmt.Fprintf(&sb, "output watermark %s\n", p.OutputWatermark())
	return sb.String()
}

// rechunkShape is one query and the delivery sequence it is fed.
type rechunkShape struct {
	name string
	pq   func(testing.TB) *plan.PlannedQuery
	log  []srcEvent
}

// rechunkShapes is one query per operator family.
func rechunkShapes() []rechunkShape {
	sql := func(q string) func(testing.TB) *plan.PlannedQuery {
		return func(t testing.TB) *plan.PlannedQuery { return planRechunkSQL(t, q) }
	}
	two := rechunkLog(300)
	bids := onSource("s", batchEvents(300))
	return []rechunkShape{
		{"stateless-chain", batchChainPlan, bids},
		{"keyed-agg", func(testing.TB) *plan.PlannedQuery { return benchScanPlan() }, bids},
		{"inner-join", sql(`SELECT a.k, a.v, b.k FROM S a JOIN R b ON a.v = b.v`), two},
		{"outer-join", sql(`SELECT a.k, a.v, b.k, b.v FROM S a FULL JOIN R b ON a.v = b.v AND a.k < b.k`), two},
		{"self-join", sql(`SELECT a.k, a.v, b.v FROM S a JOIN S b ON a.k = b.k AND a.v + 10 < b.v`), two},
		{"union-all", sql(`SELECT k, v FROM S UNION ALL SELECT k, v FROM R`), two},
		{"intersect", sql(`SELECT k, v FROM S INTERSECT SELECT k, v FROM R`), two},
		{"except-all", sql(`SELECT k, v FROM S EXCEPT ALL SELECT k, v FROM R`), two},
		{"distinct", sql(`SELECT DISTINCT k, v FROM S`), two},
		{"session-window", sql(`
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c
FROM Session(data => TABLE(S), timecol => DESCRIPTOR(t), gap => INTERVAL '2' SECONDS) TB
GROUP BY TB.wstart, TB.wend`), two},
		{"emit-after-watermark", sql(`
SELECT TB.wstart wstart, TB.wend wend, MAX(TB.v) mx
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER WATERMARK`), two},
		{"emit-after-delay", sql(`
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER DELAY INTERVAL '3' SECONDS`), two},
		{"emit-after-delay-and-watermark", sql(`
SELECT TB.wstart wstart, TB.wend wend, COUNT(*) c, MAX(TB.v) mx
FROM Tumble(data => TABLE(S), timecol => DESCRIPTOR(t), dur => INTERVAL '10' SECONDS) TB
GROUP BY TB.wstart, TB.wend
EMIT STREAM AFTER DELAY INTERVAL '3' SECONDS AND AFTER WATERMARK`), two},
	}
}

// TestPushBatchRechunkEquivalence: for every operator family, every
// re-chunking of the input into PushBatch calls renders byte-identically to
// the recorded per-event output.
func TestPushBatchRechunkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randomChunks := make([]int, 64)
	for i := range randomChunks {
		randomChunks[i] = 1 + rng.Intn(9)
	}
	chunkings := []struct {
		name   string
		chunks []int
	}{
		{"size-1", []int{1}},
		{"whole-log", []int{1 << 30}},
		{"mixed", []int{3, 1, 7, 2, 13}},
		{"random", randomChunks},
	}
	for _, shape := range rechunkShapes() {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			path := filepath.Join("testdata", "rechunk_"+shape.name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(path, []byte(runRechunked(t, shape.pq(t), shape.log, []int{1})), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s: %v", path, err)
			}
			if strings.Count(string(want), "\n") < 10 {
				t.Fatalf("%s holds too little output to pin anything", path)
			}
			for _, c := range chunkings {
				if got := runRechunked(t, shape.pq(t), shape.log, c.chunks); got != string(want) {
					t.Fatalf("chunking %q diverges from the per-event output in %s:\ngot:\n%s", c.name, path, got)
				}
			}
		})
	}
}

// TestOutputPtimesFollowInput pins the ptime rule of the operator contract
// that a read served from a resident pipeline's retained output rests on:
// fed in merge order, a pipeline's output ptimes never decrease, and an
// output event carries the ptime of the input event whose delivery emitted
// it. EMIT AFTER DELAY is the one exception: a timer fire is stamped with
// its deadline, which is no later than that input's ptime. Every shape
// without a delay also emits nothing at Close.
func TestOutputPtimesFollowInput(t *testing.T) {
	for _, shape := range rechunkShapes() {
		t.Run(shape.name, func(t *testing.T) {
			pq := shape.pq(t)
			delay := pq.Emit.Delay != nil
			p, err := Compile(pq)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Start(); err != nil {
				t.Fatal(err)
			}
			last, n := types.MinTime, 0
			for i, se := range shape.log {
				if err := p.Feed([]Source{{Name: se.src, Log: tvr.Changelog{se.ev}}}); err != nil {
					t.Fatal(err)
				}
				for _, out := range p.Drain() {
					switch {
					case out.Ptime < last:
						t.Fatalf("input %d (%s): output ptime %s after %s", i, se.ev, out.Ptime, last)
					case out.Ptime > se.ev.Ptime, !delay && out.Ptime != se.ev.Ptime:
						t.Fatalf("input %d (%s) emitted %s", i, se.ev, out)
					}
					last = out.Ptime
					n++
				}
			}
			if n < 10 {
				t.Fatalf("%d output events; the check is vacuous", n)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			closed := p.Drain()
			if !delay && len(closed) > 0 {
				t.Fatalf("Close emitted %d events, first %s", len(closed), closed[0])
			}
			for _, out := range closed {
				if out.Ptime < last {
					t.Fatalf("Close: output ptime %s after %s", out.Ptime, last)
				}
				last = out.Ptime
			}
		})
	}
}

// TestPartitionedRoundSizeInvariance: the number of events handed to each
// Pipeline.Feed call decides how consecutive-seq runs coalesce into batch
// dispatches; the drained output must be byte-identical to the one-shot Run
// at every round size, for the keyed aggregate and the stateless chain.
func TestPartitionedRoundSizeInvariance(t *testing.T) {
	shapes := []struct {
		name string
		pq   func(testing.TB) *plan.PlannedQuery
	}{
		{"stateless-chain", batchChainPlan},
		{"keyed-agg", func(testing.TB) *plan.PlannedQuery { return benchScanPlan() }},
	}
	evs := batchEvents(600)
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			serial, err := Compile(shape.pq(t))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := serial.Run([]Source{{Name: "s", Log: evs}}, types.MaxTime)
			if err != nil {
				t.Fatal(err)
			}
			want := tvr.FormatStreamTable(ref.Schema, ref.StreamRows())
			for _, rs := range []int{1, 7, 8192} {
				p, err := Compile(shape.pq(t))
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Start(); err != nil {
					t.Fatal(err)
				}
				var out tvr.Changelog
				for off := 0; off < len(evs); off += rs {
					if err := p.Feed([]Source{{Name: "s", Log: evs[off:min(off+rs, len(evs))]}}); err != nil {
						t.Fatal(err)
					}
					out = append(out, p.Drain()...)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
				out = append(out, p.Drain()...)
				if got := tvr.FormatStreamTable(ref.Schema, tvr.RenderStream(out, ref.EmitKeyIdxs)); got != want {
					t.Fatalf("round=%d diverges from one-shot Run:\ngot:\n%s\nwant:\n%s", rs, got, want)
				}
			}
		})
	}
}
