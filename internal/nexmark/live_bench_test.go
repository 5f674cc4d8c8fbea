package nexmark

// The standing-query benchmark harness: opens a live subscription over a
// NEXMark query, ingests the generated Bid changelog event by event (the
// steady-state serving pattern), and records ingest throughput plus
// per-delta delivery latency percentiles into BENCH_live.json at the
// repository root. Run via `make bench-live`.

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/tvr"
	"repro/internal/types"
)

// liveBenchSQL is the serving benchmark's standing query: a per-auction
// windowed rollup with watermark-driven EMIT.
const liveBenchSQL = `
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '10' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`

// liveSubscribe opens the benchmark subscription on a Bid-only engine.
func liveSubscribe(t testing.TB, mode live.Mode, buffer int) (*core.Engine, *live.Subscription) {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	var sub *live.Subscription
	var err error
	opts := core.SubscribeOptions{}
	if mode == live.Table {
		sub, err = e.SubscribeTable(liveBenchSQL, opts)
	} else {
		sub, err = e.SubscribeStream(liveBenchSQL, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e, sub
}

// measureLive ingests the bid changelog through a standing subscription and
// measures throughput and per-delta latency. The consumer is inline: after
// every ingest it receives the deltas the ingest made owed, so latency is the
// full ingest->pipeline->delivery path as a synchronous server would see it.
func measureLive(t testing.TB, bids tvr.Changelog, mode live.Mode) bench.LiveResult {
	t.Helper()
	e, sub := liveSubscribe(t, mode, len(bids)+16)
	st0 := sub.Stats()

	var latencies []int64
	received := int64(0)
	drain := func(since time.Time) {
		for owed := sub.Stats().DeltasOut; received < owed; received++ {
			<-sub.Deltas()
			latencies = append(latencies, time.Since(since).Nanoseconds())
		}
	}
	start := time.Now()
	for _, ev := range bids {
		t0 := time.Now()
		if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
			t.Fatal(err)
		}
		drain(t0)
	}
	ingestNs := time.Since(start).Nanoseconds()
	if _, err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	st := sub.Stats()
	if st.EventsIn-st0.EventsIn != int64(len(bids)) {
		t.Fatalf("subscription saw %d events, ingested %d", st.EventsIn-st0.EventsIn, len(bids))
	}
	if st.DeltasOut == 0 {
		t.Fatal("benchmark subscription delivered no deltas")
	}
	return bench.LiveResult{
		Query:        "Per-auction windowed max (EMIT AFTER WATERMARK)",
		Mode:         mode.String(),
		Subscribers:  1,
		Shared:       true,
		Events:       len(bids),
		Deltas:       st.DeltasOut,
		Rows:         st.RowsOut,
		IngestNs:     ingestNs,
		LatencyP50Ns: bench.PercentileNs(latencies, 0.50),
		LatencyP95Ns: bench.PercentileNs(latencies, 0.95),
		LatencyP99Ns: bench.PercentileNs(latencies, 0.99),
		LatencyMaxNs: bench.PercentileNs(latencies, 1.00),
	}
}

// measureLiveFanout is the K-subscriber serving scenario: K standing
// subscriptions to the same SQL, sharing one resident pipeline that
// evaluates each change once and hands it to K cursors. The bid changelog is
// ingested once; Deltas, Rows, and latency samples aggregate across all K
// subscribers.
func measureLiveFanout(t testing.TB, bids tvr.Changelog, k int) bench.LiveResult {
	t.Helper()
	e := core.NewEngine()
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	subs := make([]*live.Subscription, k)
	for i := range subs {
		var err error
		subs[i], err = e.SubscribeStream(liveBenchSQL, core.SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := e.LiveSessions(); got != 1 {
		t.Fatalf("%d resident pipelines for %d subscribers of one query, want 1", got, k)
	}
	var latencies []int64
	received := make([]int64, k)
	drainAll := func(since time.Time) {
		for i, sub := range subs {
			for owed := sub.Stats().DeltasOut; received[i] < owed; received[i]++ {
				<-sub.Deltas()
				latencies = append(latencies, time.Since(since).Nanoseconds())
			}
		}
	}
	start := time.Now()
	for _, ev := range bids {
		t0 := time.Now()
		if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
			t.Fatal(err)
		}
		drainAll(t0)
	}
	ingestNs := time.Since(start).Nanoseconds()
	res := bench.LiveResult{
		Query:       "Per-auction windowed max, K-subscriber fan-out",
		Mode:        live.Stream.String(),
		Subscribers: k,
		Shared:      true,
		Events:      len(bids),
		IngestNs:    ingestNs,
	}
	for _, sub := range subs {
		st := sub.Stats()
		res.Deltas += st.DeltasOut
		res.Rows += st.RowsOut
		if _, err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if res.Deltas == 0 {
		t.Fatal("fan-out benchmark delivered no deltas")
	}
	res.LatencyP50Ns = bench.PercentileNs(latencies, 0.50)
	res.LatencyP95Ns = bench.PercentileNs(latencies, 0.95)
	res.LatencyP99Ns = bench.PercentileNs(latencies, 0.99)
	res.LatencyMaxNs = bench.PercentileNs(latencies, 1.00)
	return res
}

// multiQuerySQL returns n disjoint standing queries over the Bid stream:
// the same windowed rollup at n distinct tumble widths, so each compiles to
// its own resident pipeline (distinct plan keys) and the sharded fan-out can
// actually spread them across workers.
func multiQuerySQL(n int) []string {
	durs := []int{4, 5, 8, 10, 15, 20, 25, 30}
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf(`
SELECT auction, wstart, wend, MAX(price) maxPrice
FROM Tumble(
  data => TABLE(Bid),
  timecol => DESCRIPTOR(dateTime),
  dur => INTERVAL '%d' SECONDS)
GROUP BY auction, wstart, wend
EMIT STREAM AFTER WATERMARK`, durs[i%len(durs)])
	}
	return qs
}

// measureMultiQuery is the sharded-fan-out scaling scenario: `queries`
// disjoint standing queries fed by one ingest loop, measured at a pinned
// GOMAXPROCS. Under the serial fan-out (shards=0) every pipeline applies on
// the ingesting goroutine, so aggregate throughput cannot scale with procs;
// with shard workers the applies run concurrently across pipelines. The
// clock stops after Quiesce so the sharded configurations pay for every
// enqueued delivery, not just for handing work to the queues.
func measureMultiQuery(t testing.TB, bids tvr.Changelog, shards, procs, queries int) bench.LiveResult {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	e := core.NewEngine(core.WithShards(shards))
	defer e.Close()
	if err := e.RegisterStream("Bid", BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	subs := make([]*live.Subscription, queries)
	for i, sql := range multiQuerySQL(queries) {
		var err error
		subs[i], err = e.SubscribeStream(sql, core.SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := e.LiveSessions(); got != queries {
		t.Fatalf("%d resident pipelines, want %d disjoint queries", got, queries)
	}
	start := time.Now()
	for _, ev := range bids {
		if err := e.AppendLog("Bid", tvr.Changelog{ev}); err != nil {
			t.Fatal(err)
		}
	}
	e.Quiesce()
	ingestNs := time.Since(start).Nanoseconds()
	res := bench.LiveResult{
		Query:       "Disjoint windowed maxes, aggregate ingest",
		Mode:        live.Stream.String(),
		Subscribers: queries,
		Shared:      false,
		Shards:      shards,
		Queries:     queries,
		Procs:       procs,
		Events:      len(bids),
		IngestNs:    ingestNs,
	}
	for _, sub := range subs {
		if _, err := sub.Close(); err != nil {
			t.Fatal(err)
		}
		st := sub.Stats()
		res.Deltas += st.DeltasOut
		res.Rows += st.RowsOut
	}
	if res.Deltas == 0 {
		t.Fatal("multi-query benchmark delivered no deltas")
	}
	return res
}

// TestLiveBench measures steady-state subscription serving and writes
// BENCH_live.json (or, for reduced-scale short/race runs, the separate
// BENCH_live_short.json, so the committed full-scale baseline survives
// `make verify`) at the repository root.
func TestLiveBench(t *testing.T) {
	n := 30000
	if testing.Short() || raceEnabled {
		n = 4000
	}
	n = benchEventCount(n)
	g := Generate(GeneratorConfig{Seed: 42, NumEvents: n, MaxOutOfOrderness: 2 * types.Second})
	rec := bench.NewLive("nexmark-live", testing.Short() || raceEnabled)
	logRes := func(res bench.LiveResult) {
		t.Logf("%s subs=%d shared=%v: %d events, %d deltas, %.0f events/s, p50=%s p99=%s",
			res.Mode, res.Subscribers, res.Shared, res.Events, res.Deltas,
			float64(res.Events)/(float64(res.IngestNs)/1e9),
			time.Duration(res.LatencyP50Ns), time.Duration(res.LatencyP99Ns))
	}
	var single bench.LiveResult // the stream subscription, on an engine of its own
	for _, mode := range []live.Mode{live.Stream, live.Table} {
		res := measureLive(t, g.Bids, mode)
		rec.Add(res)
		logRes(res)
		if mode == live.Stream {
			single = res
		}
	}
	// K-subscriber fan-out: K subscribers of one query share one resident
	// pipeline, and each must receive what the lone stream subscription
	// above received on its own engine.
	const fanout = 4
	sharedRes := measureLiveFanout(t, g.Bids, fanout)
	rec.Add(sharedRes)
	logRes(sharedRes)
	if sharedRes.Deltas != fanout*single.Deltas || sharedRes.Rows != fanout*single.Rows {
		t.Errorf("shared fan-out delivered %d deltas/%d rows to %d subscribers; one dedicated subscription got %d/%d each — outputs must match",
			sharedRes.Deltas, sharedRes.Rows, fanout, single.Deltas, single.Rows)
	}
	// Multi-query scaling: 8 disjoint standing queries fed by one ingest,
	// serial fan-out vs. 8 shard workers, at 1 and 4 procs. Every
	// configuration must deliver the identical aggregate output (the
	// byte-identity contract reduced to counts here; the property tests in
	// internal/live and internal/core pin the full sequences).
	const scaleQueries, scaleProcs = 8, 4
	var multi []bench.LiveResult
	for _, cfg := range []struct{ shards, procs int }{
		{0, 1}, {0, scaleProcs}, {scaleQueries, 1}, {scaleQueries, scaleProcs},
	} {
		res := measureMultiQuery(t, g.Bids, cfg.shards, cfg.procs, scaleQueries)
		rec.Add(res)
		t.Logf("multi-query shards=%d procs=%d: %d events x %d queries, %d deltas, %.0f events/s",
			res.Shards, res.Procs, res.Events, res.Queries, res.Deltas,
			float64(res.Events)/(float64(res.IngestNs)/1e9))
		multi = append(multi, res)
	}
	for _, res := range multi[1:] {
		if res.Deltas != multi[0].Deltas || res.Rows != multi[0].Rows {
			t.Errorf("multi-query shards=%d procs=%d delivered %d deltas/%d rows, serial@1proc delivered %d/%d — outputs must match",
				res.Shards, res.Procs, res.Deltas, res.Rows, multi[0].Deltas, multi[0].Rows)
		}
	}
	// The >=2x scaling bar is a wall-clock assertion; like the one-shot
	// harness's speedup bar it only arms under NEXMARK_BENCH_STRICT=1 on an
	// uninstrumented build with real 4-way parallelism.
	strict := os.Getenv("NEXMARK_BENCH_STRICT") == "1"
	sharded1, sharded4 := multi[2], multi[3]
	if strict && !testing.Short() && !raceEnabled && runtime.NumCPU() >= scaleProcs {
		if scaling := float64(sharded1.IngestNs) / float64(sharded4.IngestNs); scaling < 2.0 {
			t.Errorf("sharded multi-query ingest scaled %.2fx from 1 to %d procs, want >= 2x (%d queries, %d shards)",
				scaling, scaleProcs, scaleQueries, scaleQueries)
		}
	} else {
		t.Logf("sharded scaling bar skipped: strict=%v short=%v race=%v NumCPU=%d (need NEXMARK_BENCH_STRICT=1 and %d cores)",
			strict, testing.Short(), raceEnabled, runtime.NumCPU(), scaleProcs)
	}
	out := "../../BENCH_live.json"
	if rec.ShortMode {
		out = "../../BENCH_live_short.json"
	}
	if !benchWriteEnabled() {
		t.Logf("not refreshing %s (set NEXMARK_BENCH_WRITE=1 / use make bench-*)", out)
		return
	}
	// Preserve the recovery rows TestRecoveryBench merged into the file;
	// the two benchmarks own disjoint sections of the record.
	if prev, err := bench.LoadLive(out); err == nil && prev != nil {
		rec.Recovery = prev.Recovery
	}
	if err := rec.WriteFile(out); err != nil {
		t.Fatal(err)
	}
}
