package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/sqlparser"
	"repro/internal/tvr"
	"repro/internal/types"
	"repro/internal/wal"
)

// span is one timed call into a layer. Times are nanoseconds since the
// trace began; Parent is a span id or -1; spans of one request share Batch.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Batch  int    `json:"batch"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	spans []span
}

func (t *tracer) add(name string, start, end int64, parent, batch int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{id, name, start, end, parent, batch})
	return id
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may nest, overlap one
// another, abut, or stick out of the parent; coverage is the union of the
// child intervals clipped to the parent, so self time is never negative.
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, end := int64(0), int64(math.MinInt64)
		for _, v := range ivs {
			if v.b <= end {
				continue
			}
			covered += v.b - max(v.a, end)
			end = v.b
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// planQuery runs the three front-end layers the way core does.
func planQuery(cat plan.Catalog, sql string) (*plan.PlannedQuery, error) {
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	pq, err := plan.New(cat, plan.Config{AllowUnboundedGroupBy: true}).Plan(q)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(pq), nil
}

// scannedRelations reports, per workload relation, whether the SQL scans it.
func scannedRelations(w workload, pq *plan.PlannedQuery) []bool {
	names := map[string]bool{}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			names[strings.ToLower(s.Name)] = true
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(pq.Root)
	out := make([]bool, len(w.relations))
	for i, r := range w.relations {
		out[i] = names[strings.ToLower(r.name)]
	}
	return out
}

// medianOf times fn n times and returns the median in microseconds.
func medianOf(n int, fn func()) float64 {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = float64(time.Since(t)) / 1e3
	}
	return median(xs)
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// newTraceEngine is an engine with the workload's relations registered and
// its standing query subscribed, as the server has after set-up; drain
// empties the subscription without blocking. On the durable workload a
// SyncAlways log under walDir is attached (and returned, to be closed), so
// the root span does what the server's commit does.
func newTraceEngine(w workload, walDir string) (e *core.Engine, drain func(), walw *wal.Writer, err error) {
	e = core.NewEngine(core.WithUnboundedGroupBy())
	for _, r := range w.relations {
		if err := e.RegisterStream(r.name, r.schema); err != nil {
			return nil, nil, nil, err
		}
	}
	sub, err := e.SubscribeStream(w.sql, core.SubscribeOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	drain = func() {
		for {
			select {
			case <-sub.Deltas():
			default:
				return
			}
		}
	}
	if !w.durable {
		return e, drain, nil, nil
	}
	walw, err = wal.Open(walDir, e.WALSeq()+1, wal.Options{Mode: wal.SyncAlways})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := e.AttachWAL(walw); err != nil {
		walw.Close()
		return nil, nil, nil, err
	}
	return e, drain, walw, nil
}

// walRecord writes a publish record the way core's commit path does.
func walRecord(name string, log tvr.Changelog) func(*checkpoint.Encoder) error {
	return func(enc *checkpoint.Encoder) error {
		enc.String("P")
		enc.String(name)
		tvr.SaveChangelog(enc, log)
		return enc.Err()
	}
}

// tracedRun is the in-process per-layer run, separate from the end-to-end
// run and never mixed into its timings. It drives the batches one server
// received (warm-up, paced, saturate: the events the server's /metrics had
// seen at its last scrape s2, so the two reconcile) through each layer's
// public functions with a span around every call:
//
//	core.append_log   root, per batch: Engine.AppendLog with the standing
//	                  query attached and its deltas drained inline
//	  wal.append      Writer.Append of the same batch (durable workload)
//	  exec.feed       Pipeline.Feed of the same batch
//	  tvr.render      Pipeline.Drain + StreamRenderer.Append
//
// The children are produced by driving the same batch through those layers
// directly, right after the root call, and are recorded shifted to start at
// the root's start, back to back, so the root's self time — what core and
// live add around the layers — is its duration minus their coverage.
func tracedRun(cfg runConfig, in *input, ref *reference, m map[string]float64, s2 scrape) error {
	w := cfg.w
	batches := in.batches
	events := countEvents(batches)

	// ---- front end: parse, plan, optimise, compile ----
	cat := ref.engine
	m["sqlparser.parse_us"] = medianOf(200, func() { sqlparser.Parse(w.sql) }) //nolint:errcheck // parsed fine above
	q, err := sqlparser.Parse(w.sql)
	if err != nil {
		return err
	}
	planner := plan.New(cat, plan.Config{AllowUnboundedGroupBy: true})
	m["plan.plan_us"] = medianOf(200, func() { planner.Plan(q) }) //nolint:errcheck // planned fine below
	optUs := make([]float64, 200)
	for i := range optUs {
		fresh, err := planner.Plan(q) // Optimize may rewrite its input
		if err != nil {
			return err
		}
		t := time.Now()
		opt.Optimize(fresh)
		optUs[i] = float64(time.Since(t)) / 1e3
	}
	m["opt.optimize_us"] = median(optUs)
	pq, err := planQuery(cat, w.sql)
	if err != nil {
		return err
	}
	m["exec.compile_us"] = medianOf(50, func() { exec.Compile(pq) }) //nolint:errcheck // compiled fine below
	scanned := scannedRelations(w, pq)

	walDir, err := os.MkdirTemp(cfg.outDir, "trace-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	// ---- untraced pass: the same batches, no spans ----
	runtime.GC()
	var untraced time.Duration
	{
		e, drain, walw, err := newTraceEngine(w, filepath.Join(walDir, "untraced"))
		if err != nil {
			return err
		}
		t := time.Now()
		for _, b := range batches {
			if err := e.AppendLog(w.relations[b.rel].name, b.log); err != nil {
				return err
			}
			drain()
		}
		untraced = time.Since(t)
		if walw != nil {
			walw.Close()
		}
	}

	// ---- traced pass ----
	runtime.GC()
	e, drain, engineWAL, err := newTraceEngine(w, filepath.Join(walDir, "engine"))
	if err != nil {
		return err
	}
	if engineWAL != nil {
		defer engineWAL.Close()
	}
	pipe, err := exec.Compile(pq)
	if err != nil {
		return err
	}
	if err := pipe.Start(); err != nil {
		return err
	}
	renderer := tvr.NewStreamRenderer(pq.EmitKeyIdxs)
	var walAlways, walNone *wal.Writer
	walReg := obs.NewRegistry()
	if w.durable {
		walAlways, err = wal.Open(filepath.Join(walDir, "always"), 1, wal.Options{Mode: wal.SyncAlways, Obs: walReg})
		if err != nil {
			return err
		}
		defer walAlways.Close()
		walNone, err = wal.Open(filepath.Join(walDir, "none"), 1, wal.Options{Mode: wal.SyncNone})
		if err != nil {
			return err
		}
		defer walNone.Close()
	}

	tr := &tracer{}
	t0 := time.Now()
	since := func(t time.Time) int64 { return int64(t.Sub(t0)) }
	var traced, sumRoot, sumWAL, sumWALNone, sumFeed, sumRender time.Duration
	var feedNs []float64 // per scanned batch: feed ns per event
	var feedEvents, rowsRendered int
	var allocs uint64
	for i, b := range batches {
		name := w.relations[b.rel].name
		a := time.Now()
		if err := e.AppendLog(name, b.log); err != nil {
			return err
		}
		drain()
		z := time.Now()
		root := tr.add("core.append_log", since(a), since(z), -1, i)
		traced += time.Since(a)
		sumRoot += z.Sub(a)

		at := since(a) // children are laid out back to back from the root's start
		child := func(name string, d time.Duration) {
			tr.add(name, at, at+int64(d), root, i)
			at += int64(d)
		}
		if w.durable {
			t := time.Now()
			if err := walAlways.Append(uint64(i+1), walRecord(name, b.log)); err != nil {
				return err
			}
			d := time.Since(t)
			sumWAL += d
			child("wal.append", d)
			t = time.Now()
			if err := walNone.Append(uint64(i+1), walRecord(name, b.log)); err != nil {
				return err
			}
			sumWALNone += time.Since(t)
		}
		if scanned[b.rel] {
			a0 := heapAllocs()
			t := time.Now()
			if err := pipe.Feed([]exec.Source{{Name: name, Log: b.log}}); err != nil {
				return err
			}
			d := time.Since(t)
			allocs += heapAllocs() - a0
			sumFeed += d
			feedEvents += len(b.log)
			feedNs = append(feedNs, float64(d)/float64(len(b.log)))
			child("exec.feed", d)
			t = time.Now()
			rows := renderer.Append(pipe.Drain())
			d = time.Since(t)
			sumRender += d
			rowsRendered += len(rows)
			child("tvr.render", d)
		}
	}
	var selfRoot int64
	for i, self := range selfTimes(tr.spans) {
		if tr.spans[i].Parent == -1 {
			selfRoot += self
		}
	}
	if err := tr.writeFile(filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")); err != nil {
		return err
	}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	m["core.commit_us_per_event"] = us(sumRoot) / float64(events)
	m["live.self_us_per_event"] = float64(selfRoot) / 1e3 / float64(events)
	m["trace.overhead_share"] = (traced - untraced).Seconds() / untraced.Seconds()
	m["trace.events"] = float64(events)
	m["exec.feed_us_per_event"] = us(sumFeed) / float64(feedEvents)
	decile := max(len(feedNs)/10, 1)
	first, last := mean(feedNs[:decile])/1e3, mean(feedNs[len(feedNs)-decile:])/1e3
	m["exec.feed_us_per_event_first_decile"] = first
	m["exec.feed_us_per_event_last_decile"] = last
	m["exec.feed_cost_growth"] = last / first
	m["exec.allocs_per_event"] = float64(allocs) / float64(feedEvents)
	st := pipe.Stats()
	m["exec.state_groups_live"] = float64(st.StateGroups)
	m["exec.state_groups_freed"] = float64(st.FreedGroups)
	m["exec.state_rows"] = float64(st.StateRows)
	m["exec.late_dropped"] = float64(st.LateDropped)
	m["tvr.rows_rendered"] = float64(rowsRendered)
	if rowsRendered > 0 {
		m["tvr.render_us_per_row"] = us(sumRender) / float64(rowsRendered)
	}

	// ---- exec.Run over the same history (the one-shot query path) ----
	var sources []exec.Source
	for ri, r := range w.relations {
		if !scanned[ri] {
			continue
		}
		sources = append(sources, exec.Source{Name: r.name, Log: in.logs[ri]})
	}
	runPipe, err := exec.Compile(pq)
	if err != nil {
		return err
	}
	t := time.Now()
	if _, err := runPipe.Run(sources, types.MaxTime); err != nil {
		return err
	}
	m["exec.run_us_per_event"] = us(time.Since(t)) / float64(feedEvents)

	// ---- wal: both policies, replay ----
	if w.durable {
		commits := float64(len(batches))
		m["wal.append_us_per_commit.always"] = us(sumWAL) / commits
		m["wal.append_us_per_commit.none"] = us(sumWALNone) / commits
		ws := walAlways.Stats()
		m["wal.bytes_per_event"] = float64(ws.AppendedBytes) / float64(events)
		m["wal.fsyncs_per_commit"] = float64(ws.Syncs) / commits
		var text bytes.Buffer
		if err := walReg.WriteText(&text); err != nil {
			return err
		}
		wm := parseMetrics(text.String())
		m["wal.rotations"] = wm["wal_segment_rotations_total"]
		if n := wm["wal_fsync_seconds_count"]; n > 0 {
			m["wal.fsync_us"] = wm["wal_fsync_seconds_sum"] * 1e6 / n
		}
		if err := walAlways.Close(); err != nil {
			return err
		}
		replayed := 0
		t := time.Now()
		_, err := wal.Replay(filepath.Join(walDir, "always"), func(seq uint64, dec *checkpoint.Decoder) error {
			_, _ = dec.String(), dec.String() // record kind, relation name
			log, err := tvr.LoadChangelog(dec)
			replayed += len(log)
			return err
		})
		if err != nil {
			return err
		}
		if replayed != events {
			return fmt.Errorf("wal replay decoded %d of %d events", replayed, events)
		}
		m["wal.replay_us_per_event"] = us(time.Since(t)) / float64(events)
	}

	// ---- checkpoint: snapshot and restore of the traced engine's end state ----
	var snap bytes.Buffer
	t = time.Now()
	if err := e.CheckpointAll(&snap); err != nil {
		return err
	}
	m["checkpoint.snapshot_ms"] = ms(time.Since(t))
	m["checkpoint.snapshot_bytes_per_event"] = float64(snap.Len()) / float64(events)
	restored := core.NewEngine(core.WithUnboundedGroupBy())
	t = time.Now()
	if err := restored.RestoreAll(bytes.NewReader(snap.Bytes())); err != nil {
		return err
	}
	m["checkpoint.restore_ms"] = ms(time.Since(t))

	// ---- reconcile with the server's own span table ----
	// s2 is cumulative since server start, i.e. over exactly these batches.
	gap := func(t time.Duration, stage string) float64 {
		s := s2[`commit_stage_seconds_sum{stage="`+stage+`"}`]
		// Stages the server barely ran (under a microsecond per commit) have
		// nothing to reconcile.
		if s < 1e-6*float64(len(batches)) {
			return 0
		}
		return math.Abs(t.Seconds()-s) / s
	}
	m["trace.reconcile_gap_share.apply"] = gap(sumFeed, "apply")
	m["trace.reconcile_gap_share.render"] = gap(sumRender, "render")
	m["trace.reconcile_gap_share.wal"] = gap(sumWAL, "wal")
	m["trace.reconcile_gap_share"] = max(m["trace.reconcile_gap_share.apply"],
		m["trace.reconcile_gap_share.render"], m["trace.reconcile_gap_share.wal"])
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
