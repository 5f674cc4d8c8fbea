package main

import (
	"context"
	"fmt"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// runConfig is one benchmark run: one workload, one seed, one server.
type runConfig struct {
	outDir string // benchmark/out: logs, data dirs, span files
	bin    string // built cmd/serve
	buildS float64
	w      workload
	seed   int64
	// seconds is the nominal length of the timed phases, all cycles
	// together; it fixes the input size (see workload.sizes).
	seconds float64
	trace   bool
	// cycles is how many measurement cycles the run makes: cycles for an
	// end-to-end run, tracedCycles for a traced one (see defaultCycles).
	cycles int
}

func defaultCycles(trace bool) int {
	if trace {
		return tracedCycles
	}
	return cycles
}

// cycles is how many times a run repeats the whole measurement — set-up,
// paced phase, saturate phase, queries, recovery — each on a fresh server
// process with the same input. Run-to-run noise on a two-core box is mostly
// per process (where the garbage collector's cycles fall, which core a
// thread lands on), so a run reports the median over its cycles for
// throughput, CPU, memory, set-up and recovery, and pools the cycles'
// latency samples before taking percentiles.
const cycles = 5

// tracedCycles is how many cycles a traced run makes: the per-layer metrics
// have no bound to keep, so two cycles' server- and client-side numbers do,
// and the time goes to the in-process passes instead. The input is the same
// as an end-to-end run's.
const tracedCycles = 2

// prefixQueries one-shot queries over a fixed history prefix are timed on
// workloads that do not interleave queries with ingest.
const (
	prefixQueries     = 12 // per cycle
	prefixQueryEvents = 10000
)

// runResult is what one run reports.
type runResult struct {
	Workload       string             `json:"workload"`
	Seed           int64              `json:"seed"`
	Trace          bool               `json:"trace"`
	Correct        bool               `json:"correct"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	GeneratorBound bool               `json:"generator_bound"`
	Failures       []string           `json:"failures,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	// Hash is the verified stream-rendering hash (received == reference).
	Hash string `json:"hash"`
	// PerCycle holds each cycle's value of the metrics that are aggregated
	// over cycles, so a result file shows the noise a run's figure hides.
	PerCycle map[string][]float64 `json:"per_cycle"`
}

// cycleResult is what one cycle measured.
type cycleResult struct {
	setupS         float64
	paced, sat     *phaseStats
	cpuPerMevent   float64
	rssMB          float64
	clientCPUShare float64
	prefixMs       []float64
	// deltaMs and queryMs are filled in when the cycles are verified: the
	// paced phase's delta latencies, and the query round trips that count
	// (interleaved on join_query_mix, prefix queries elsewhere).
	deltaMs, queryMs []float64
	prefixRows       queryResult
	recoveryS        float64
	s1, s2           scrape   // /metrics after the paced and the saturate phase
	queryMeanS       float64  // server-side mean of the queries behind queryMs
	st               subStats // the subscription's counters after the saturate phase
	warmDeltas       int
	deltas           []parsedDelta
	deltaBytes       int64
	hash             string
	rows             int64
}

// checker counts operations attempted and failed outside the producer
// loops, keeping a description of each failure.
type checker struct {
	attempted, failed int
	failures          []string
}

func (c *checker) check(ok bool, format string, a ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.failures) < 20 {
			c.failures = append(c.failures, fmt.Sprintf(format, a...))
		}
	}
}

func (c *checker) add(p *phaseStats) {
	c.attempted += p.attempted
	c.failed += p.failed
	for _, f := range p.failures {
		if len(c.failures) < 20 {
			c.failures = append(c.failures, f)
		}
	}
}

// prefixPoint is the ptime closing the first prefixQueryEvents events: the
// fixed history prefix the one-shot prefix queries replay.
func prefixPoint(in *input) types.Time {
	at, events := in.batches[0].hi, 0
	for _, b := range in.batches {
		if events >= prefixQueryEvents {
			break
		}
		at = b.hi
		events += len(b.log)
	}
	return at
}

// runCycle is one complete measurement on a fresh server: set-up, paced
// phase, saturate phase, prefix queries, and on the durable workload
// SIGKILL + timed recovery. The server is gone when it returns.
func runCycle(ctx context.Context, cfg runConfig, cycle int, ck *checker) (*cycleResult, *input, error) {
	w := cfg.w
	c := &cycleResult{}
	t0 := time.Now()
	s, in, err := setUp(ctx, cfg, cycle)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	c.setupS = time.Since(t0).Seconds()
	defer func() { s.close() }()
	base := s.srv.base
	pid := s.srv.cmd.Process.Pid

	// The load generator shares two cores with the server: its own garbage
	// collector (which marks on idle processors) must not run inside a timed
	// phase. It collects between phases instead; a phase allocates little
	// more than the lines it receives.
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	runtime.GC()

	// ---- paced (open loop): latencies ----
	if _, err := awaitDeltas(ctx, s.client, base, s.sub); err != nil {
		return nil, nil, fmt.Errorf("after warm-up: %w", err)
	}
	c.warmDeltas = s.sub.count()
	c.paced = runPaced(ctx, s, w, in.batches[in.warm:in.paced])
	ck.add(c.paced)
	if _, err := awaitDeltas(ctx, s.client, base, s.sub); err != nil {
		ck.check(false, "after paced phase: %v", err)
	}
	if c.s1, err = scrapeMetrics(ctx, s.client, base); err != nil {
		return nil, nil, err
	}
	runtime.GC()

	// ---- saturate (closed loop): throughput, CPU ----
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, nil, err
	}
	self0 := selfCPU()
	// Queries sit every queryEvery events of a nominal 10 s run.
	c.sat = runSaturate(ctx, s, w, in.batches[in.paced:], int(float64(w.queryEvery)*cfg.seconds/10))
	ck.add(c.sat)
	self1 := selfCPU()
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err // interrupted: the numbers would be of a partial run
	}
	if c.st, err = awaitDeltas(ctx, s.client, base, s.sub); err != nil {
		ck.check(false, "after saturate phase: %v", err)
	}
	if c.s2, err = scrapeMetrics(ctx, s.client, base); err != nil {
		return nil, nil, err
	}
	c.cpuPerMevent = (cpu1 - cpu0).Seconds() / float64(c.sat.events) * 1e6
	c.clientCPUShare = (self1 - self0).Seconds() / c.sat.wall.Seconds()

	// ---- one-shot queries over a fixed prefix of history ----
	// The same replayed work on every commit, small on every workload; the
	// last reply is checked against the reference.
	prefixURL := fmt.Sprintf("%s/v1/query?mode=table&at=%d&sql=%s", base, int64(prefixPoint(in)), url.QueryEscape(w.sql))
	for i := 0; i < prefixQueries; i++ {
		t := time.Now()
		err := getJSON(ctx, s.client, prefixURL, &c.prefixRows)
		c.prefixMs = append(c.prefixMs, ms(time.Since(t)))
		ck.check(err == nil, "prefix query: %v", err)
	}
	s3, err := scrapeMetrics(ctx, s.client, base)
	if err != nil {
		return nil, nil, err
	}
	// The server's own view of the queries query_p50_ms times.
	from, to := c.s2, s3
	if w.queryEvery > 0 {
		from, to = c.s1, c.s2
	}
	if n := from.delta(to, "engine_query_seconds_count"); n > 0 {
		c.queryMeanS = from.delta(to, "engine_query_seconds_sum") / n
	}

	rss, err := procPeakRSS(pid)
	if err != nil {
		return nil, nil, err
	}
	c.rssMB = float64(rss) / (1 << 20)
	lines := s.sub.takeLines()

	// ---- SIGKILL, restart, recovery (durable workload) ----
	if w.durable {
		var h health
		if err := getJSON(ctx, s.client, base+"/v1/healthz", &h); err != nil {
			return nil, nil, err
		}
		s.sub.close()
		s.sub = nil
		s.srv.kill()
		s.client.CloseIdleConnections()
		srv, err := startServer(cfg.bin, s.srv.log.Name(), w.serverFlags(s.dataDir)...)
		if err != nil {
			return nil, nil, err
		}
		s.srv = srv
		readyAt, err := srv.waitHealthy(ctx, s.client, func(got health) bool { return got.WALSeq == h.WALSeq })
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		c.recoveryS = readyAt.Sub(srv.execAt).Seconds()
		dataEvents := 0
		for _, log := range in.logs {
			dataEvents += log.DataCount()
		}
		var count struct {
			Rows [][]int64 `json:"rows"`
		}
		err = getJSON(ctx, s.client, srv.base+"/v1/query?sql="+url.QueryEscape("SELECT COUNT(*) c FROM Bid"), &count)
		ck.check(err == nil && len(count.Rows) == 1 && len(count.Rows[0]) == 1 && count.Rows[0][0] == int64(dataEvents),
			"after recovery COUNT(*) = %v (err %v), want the %d acknowledged rows", count.Rows, err, dataEvents)
	}
	s.close()
	s = nil

	debug.SetGCPercent(gcPercent)
	hasher := newRowHasher()
	if c.deltas, c.deltaBytes, err = parseDeltas(lines, hasher); err != nil {
		return nil, nil, err
	}
	c.hash, c.rows = hasher.sum(), hasher.rows
	return c, in, nil
}

// runWorkload performs the whole run: the measurement cycles, verification
// against the in-process reference, aggregation, and (with cfg.trace) the
// in-process traced passes.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	w := cfg.w
	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]float64{}}
	m := res.Metrics
	ck := &checker{}

	var cs []*cycleResult
	var in *input
	boxTotal0, boxSteal0 := boxCPU()
	for cycle := 0; cycle < cfg.cycles; cycle++ {
		c, cin, err := runCycle(ctx, cfg, cycle, ck)
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", cycle, err)
		}
		cs, in = append(cs, c), cin
	}

	boxTotal1, boxSteal1 := boxCPU()
	m["harness.steal_share"] = (boxSteal1 - boxSteal0) / max(boxTotal1-boxTotal0, 1)

	// ---- verify every cycle against the in-process reference ----
	ref, err := newReference(w, in)
	if err != nil {
		return nil, err
	}
	refHash, refRows, err := ref.streamHash()
	if err != nil {
		return nil, err
	}
	scanned, err := ref.scanned()
	if err != nil {
		return nil, err
	}
	wantTable, err := ref.tableRows(prefixPoint(in))
	if err != nil {
		return nil, err
	}
	sent, scannedEvents := countEvents(in.batches), 0
	for _, b := range in.batches {
		if scanned[b.rel] {
			scannedEvents += len(b.log)
		}
	}
	res.Hash = refHash
	var ackMs, lateMs, deltaMs, afterAckMs, queryMs, checkpointMs []float64
	for i, c := range cs {
		ck.check(c.hash == refHash, "cycle %d: stream hash %s over %d rows != reference %s over %d rows", i, c.hash, c.rows, refHash, refRows)
		ck.check(c.st.EventsIn == int64(scannedEvents), "cycle %d: subscription eventsIn %d != %d events sent to scanned relations", i, c.st.EventsIn, scannedEvents)
		ck.check(c.st.RowsOut == c.rows, "cycle %d: subscription rowsOut %d != %d rows received", i, c.st.RowsOut, c.rows)
		gotTable := make([]string, len(c.prefixRows.Rows))
		for j, r := range c.prefixRows.Rows {
			gotTable[j] = string(r)
		}
		sort.Strings(gotTable)
		ck.check(strings.Join(gotTable, "\n") == strings.Join(wantTable, "\n"),
			"cycle %d: prefix query returned %d rows that differ from the reference's %d", i, len(gotTable), len(wantTable))

		// Delta latencies of the paced phase: due time of the batch that
		// caused the delta to the delta's line fully read.
		unmatched := 0
		for j, bi := range matchDeltas(in, scanned, c.deltas) {
			switch {
			case j < c.warmDeltas:
			case bi < 0:
				unmatched++
			case bi >= in.warm && bi < in.paced:
				k := bi - in.warm
				c.deltaMs = append(c.deltaMs, ms(c.deltas[j].at.Sub(c.paced.due[k])))
				afterAckMs = append(afterAckMs, ms(c.deltas[j].at.Sub(c.paced.acked[k])))
			}
		}
		ck.check(unmatched == 0, "cycle %d: %d deltas map to no batch", i, unmatched)
		c.queryMs = c.prefixMs
		if w.queryEvery > 0 {
			c.queryMs = c.sat.queryMs
		}
		ackMs = append(ackMs, c.paced.ackMs...)
		deltaMs = append(deltaMs, c.deltaMs...)
		queryMs = append(queryMs, c.queryMs...)
		lateMs = append(lateMs, c.paced.lateness...)
		checkpointMs = append(checkpointMs, c.sat.checkpointMs...)
	}

	// ---- aggregate: medians over cycles, percentiles over pooled samples ----
	// each evaluates f on every cycle and keeps the values in the result
	// file under name, so the file shows the noise a run's figure hides (and
	// compare can tell a spread from a single run).
	res.PerCycle = map[string][]float64{}
	each := func(name string, f func(*cycleResult) float64) []float64 {
		xs := make([]float64, len(cs))
		for i, c := range cs {
			xs[i] = f(c)
		}
		res.PerCycle[name] = xs
		return xs
	}
	m["setup_s"] = median(each("setup_s", func(c *cycleResult) float64 { return c.setupS }))
	m["ingest_events_per_s"] = median(each("ingest_events_per_s", func(c *cycleResult) float64 {
		return float64(c.sat.events) / c.sat.ingestRTT.Seconds()
	}))
	m["server_cpu_s_per_mevent"] = median(each("server_cpu_s_per_mevent", func(c *cycleResult) float64 { return c.cpuPerMevent }))
	// A peak is a maximum: the largest resident set any cycle's server
	// reached (which of a few collector-paced sizes one process peaks at
	// varies; the largest over the cycles hardly does).
	m["server_rss_peak_mb"] = slices.Max(each("server_rss_peak_mb", func(c *cycleResult) float64 { return c.rssMB }))
	each("ingest_ack_p50_ms", func(c *cycleResult) float64 { return percentile(c.paced.ackMs, 0.50) })
	each("delta_latency_p50_ms", func(c *cycleResult) float64 { return percentile(c.deltaMs, 0.50) })
	each("query_p50_ms", func(c *cycleResult) float64 { return median(c.queryMs) })
	m["ingest_ack_p50_ms"] = percentile(ackMs, 0.50)
	m["delta_latency_p50_ms"] = percentile(deltaMs, 0.50)
	m["query_p50_ms"] = median(queryMs)

	m["client.ack_p95_ms"] = percentile(ackMs, 0.95)
	m["client.delta_p95_ms"] = percentile(deltaMs, 0.95)
	m["client.ack_p99_ms"] = percentile(ackMs, 0.99)
	m["client.ack_max_ms"] = percentile(ackMs, 1)
	m["client.ack_samples"] = float64(len(ackMs))
	m["client.delta_p99_ms"] = percentile(deltaMs, 0.99)
	m["client.delta_samples"] = float64(len(deltaMs))
	m["client.query_samples"] = float64(len(queryMs))
	m["client.lateness_p95_ms"] = percentile(lateMs, 0.95)
	m["client.cpu_share"] = median(each("client.cpu_share", func(c *cycleResult) float64 { return c.clientCPUShare }))
	m["harness.build_s"] = cfg.buildS
	m["checkpoint.http_ms_p50"] = median(checkpointMs)
	m["recovery.restart_s"] = median(each("recovery.restart_s", func(c *cycleResult) float64 { return c.recoveryS }))
	m["serve.delta_after_ack_p50_ms"] = median(afterAckMs)
	last := cs[len(cs)-1]
	if last.rows > 0 {
		m["serve.delta_bytes_per_row"] = float64(last.deltaBytes) / float64(last.rows)
	}
	var bodyBytes int64
	for _, b := range in.batches {
		bodyBytes += int64(len(b.body))
	}
	m["serve.request_bytes_per_event"] = float64(bodyBytes) / float64(sent)
	m["live.deltas_out"] = float64(last.st.DeltasOut)
	m["live.rows_out"] = float64(last.st.RowsOut)
	m["exec.events_per_dispatch"] = last.st.EventsPerDispatch
	m["exec.rows_out_per_event"] = float64(refRows) / float64(scannedEvents)
	for name, f := range serverSide {
		m[name] = median(each(name, f))
	}

	// The open loop's pacing interval is the mean batch at the paced rate.
	interval := float64(last.paced.events) / float64(last.paced.requests) / float64(w.pacedRate) * 1000
	res.GeneratorBound = m["client.cpu_share"] > 0.8 || m["client.lateness_p95_ms"] > 0.1*interval

	if cfg.trace {
		if err := tracedRun(cfg, in, ref, m, last.s2); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}

	res.Attempted, res.Failed, res.Failures = ck.attempted, ck.failed, ck.failures
	res.Correct = ck.failed == 0
	m["client.failed_share"] = float64(ck.failed) / float64(ck.attempted)
	return res, nil
}

// serverSide derives, per cycle, the per-layer numbers that come from the
// server's own /metrics: the commit span table over the saturate phase (the
// difference of the scrapes around it) and the request overhead around it.
var serverSide = func() map[string]func(*cycleResult) float64 {
	us := func(sec float64) float64 { return sec * 1e6 }
	out := map[string]func(*cycleResult) float64{}
	for _, stage := range []string{"validate", "wal", "sequence", "apply", "render", "deliver"} {
		series := `commit_stage_seconds_sum{stage="` + stage + `"}`
		out["commit."+stage+"_us_per_event"] = func(c *cycleResult) float64 {
			return us(c.s1.delta(c.s2, series)) / float64(c.sat.events)
		}
	}
	commitS := func(c *cycleResult) float64 { return c.s1.delta(c.s2, "commit_seconds_sum") }
	out["commit.total_us_per_event"] = func(c *cycleResult) float64 { return us(commitS(c)) / float64(c.sat.events) }
	out["commit.slow_total"] = func(c *cycleResult) float64 { return c.s2["commit_slow_total"] }
	out["serve.ingest_overhead_us_per_event"] = func(c *cycleResult) float64 {
		return us(c.sat.ingestRTT.Seconds()-commitS(c)) / float64(c.sat.events)
	}
	out["serve.ingest_overhead_us_per_request"] = func(c *cycleResult) float64 {
		return us(c.sat.ingestRTT.Seconds()-commitS(c)) / float64(c.sat.requests)
	}
	out["engine.query_seconds_mean"] = func(c *cycleResult) float64 { return c.queryMeanS }
	out["live.parks"] = func(c *cycleResult) float64 { return c.s2["live_parks_total"] }
	out["wal.server_fsync_us"] = func(c *cycleResult) float64 {
		if n := c.s1.delta(c.s2, "wal_fsync_seconds_count"); n > 0 {
			return us(c.s1.delta(c.s2, "wal_fsync_seconds_sum")) / n
		}
		return 0
	}
	return out
}()

// reference is the in-process engine holding exactly the changelogs the
// server was sent; its one-shot renderings are what the server's outputs
// are checked against.
type reference struct {
	w      workload
	engine *core.Engine
}

func newReference(w workload, in *input) (*reference, error) {
	e := core.NewEngine(core.WithUnboundedGroupBy())
	for i, r := range w.relations {
		if err := e.RegisterStream(r.name, r.schema); err != nil {
			return nil, err
		}
		if err := e.AppendLog(r.name, in.logs[i]); err != nil {
			return nil, err
		}
	}
	return &reference{w: w, engine: e}, nil
}

// streamHash is the hash of QueryStream over the full history: the engine's
// live == replay claim, checked across the socket.
func (r *reference) streamHash() (string, int64, error) {
	res, err := r.engine.QueryStream(r.w.sql)
	if err != nil {
		return "", 0, err
	}
	h := newRowHasher()
	var buf []byte
	for _, sr := range res.Rows {
		buf = appendRowJSON(buf[:0], sr.Row)
		h.add(buf, sr.Undo, int64(sr.Ptime), int64(sr.Ver))
	}
	return h.sum(), h.rows, nil
}

// tableRows is the sorted JSON rows of the table rendering at ptime at.
func (r *reference) tableRows(at types.Time) ([]string, error) {
	res, err := r.engine.QueryTable(r.w.sql, at)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = string(appendRowJSON(nil, row))
	}
	sort.Strings(out)
	return out, nil
}

// scanned reports, per workload relation, whether the SQL scans it.
func (r *reference) scanned() ([]bool, error) {
	pq, err := planQuery(r.engine, r.w.sql)
	if err != nil {
		return nil, err
	}
	return scannedRelations(r.w, pq), nil
}

// takeLines hands over the lines read so far.
func (s *subscriber) takeLines() []subLine {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}
