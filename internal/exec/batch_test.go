package exec

// White-box property tests for the PushBatch fast path: delivering the same
// event sequence to an operator chain in ANY re-chunking of PushBatch calls —
// including size-1 batches, which pushBatch routes through the per-event
// Push — must produce byte-identical collector output. The number of events
// per Pipeline.Feed call (the other axis that decides how runs coalesce into
// batches) must be equally invisible.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
)

// Compile-time proof that the high-traffic operators implement the batch
// fast path (fall back to per-event Push and these tests still pass, but the
// batching win silently disappears).
var (
	_ batchSink = (*scanOp)(nil)
	_ batchSink = (*filterOp)(nil)
	_ batchSink = (*projectOp)(nil)
	_ batchSink = (*windowOp)(nil)
	_ batchSink = (*aggOp)(nil)
	_ batchSink = (*Collector)(nil)
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

// runRechunked compiles pq, pushes evs into its scan under the given
// repeating chunk-size pattern (nil = per-event Push, the reference), and
// returns the rendered output log.
func runRechunked(t *testing.T, pq *plan.PlannedQuery, evs []tvr.Event, chunks []int) string {
	t.Helper()
	p, err := Compile(pq)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	scan := p.scans["s"][0]
	if chunks == nil {
		for _, ev := range evs {
			if err := scan.Push(ev); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for i, ci := 0, 0; i < len(evs); ci++ {
			end := i + chunks[ci%len(chunks)]
			if end > len(evs) {
				end = len(evs)
			}
			if err := pushBatch(scan, evs[i:end]); err != nil {
				t.Fatal(err)
			}
			i = end
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	out := p.Drain()
	var sb strings.Builder
	for _, ev := range out {
		sb.WriteString(ev.String())
		sb.WriteByte('\n')
	}
	sb.WriteString(tvr.FormatStreamTable(pq.Root.Schema(), tvr.RenderStream(out, pq.EmitKeyIdxs)))
	return sb.String()
}

// TestPushBatchRechunkEquivalence: for the stateless chain and the keyed
// aggregate, every re-chunking of the input into PushBatch calls renders
// byte-identically to the per-event Push path.
func TestPushBatchRechunkEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	randomChunks := make([]int, 64)
	for i := range randomChunks {
		randomChunks[i] = 1 + rng.Intn(9)
	}
	shapes := []struct {
		name string
		pq   func(testing.TB) *plan.PlannedQuery
	}{
		{"stateless-chain", batchChainPlan},
		{"keyed-agg", func(testing.TB) *plan.PlannedQuery { return benchScanPlan() }},
	}
	evs := batchEvents(600)
	chunkings := []struct {
		name   string
		chunks []int
	}{
		{"size-1", []int{1}},
		{"whole-log", []int{len(evs)}},
		{"mixed", []int{3, 1, 7, 2, 13}},
		{"random", randomChunks},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			want := runRechunked(t, shape.pq(t), evs, nil)
			for _, c := range chunkings {
				if got := runRechunked(t, shape.pq(t), evs, c.chunks); got != want {
					t.Fatalf("chunking %q diverges from per-event push:\ngot:\n%s\nwant:\n%s", c.name, got, want)
				}
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
