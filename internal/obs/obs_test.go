package obs

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionFormat is the golden test for the Prometheus text format:
// family ordering, HELP/TYPE lines, label rendering, and histogram
// bucket/sum/count shape must match exactly.
func TestExpositionFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wal_appends_total", "WAL records appended.")
	c.Add(3)
	g := r.Gauge("engine_degraded", "1 when the engine is in degraded read-only mode.")
	g.Set(1)
	r.Counter("engine_commits_total", "Commits applied.", "kind", "publish").Add(5)
	r.Counter("engine_commits_total", "Commits applied.", "kind", "heartbeat").Add(2)
	r.GaugeFunc("live_sessions", "Resident live sessions.", func() float64 { return 4 })
	h := r.Histogram("wal_fsync_seconds", "fsync latency.", DurationScale, []int64{1_000_000, 10_000_000})
	h.Observe(500_000)    // first bucket
	h.Observe(5_000_000)  // second bucket
	h.Observe(50_000_000) // +Inf

	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP engine_commits_total Commits applied.",
		"# TYPE engine_commits_total counter",
		`engine_commits_total{kind="heartbeat"} 2`,
		`engine_commits_total{kind="publish"} 5`,
		"# HELP engine_degraded 1 when the engine is in degraded read-only mode.",
		"# TYPE engine_degraded gauge",
		"engine_degraded 1",
		"# HELP live_sessions Resident live sessions.",
		"# TYPE live_sessions gauge",
		"live_sessions 4",
		"# HELP wal_appends_total WAL records appended.",
		"# TYPE wal_appends_total counter",
		"wal_appends_total 3",
		"# HELP wal_fsync_seconds fsync latency.",
		"# TYPE wal_fsync_seconds histogram",
		`wal_fsync_seconds_bucket{le="0.001"} 1`,
		`wal_fsync_seconds_bucket{le="0.01"} 2`,
		`wal_fsync_seconds_bucket{le="+Inf"} 3`,
		"wal_fsync_seconds_sum 0.0555",
		"wal_fsync_seconds_count 3",
		"",
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpositionParses sanity-checks every line against the text-format
// grammar: comments start with "# HELP"/"# TYPE", samples are
// "name[{labels}] value".
func TestExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a.").Inc()
	r.Histogram("b_seconds", "b.", DurationScale, DurationBuckets, "stage", `x"y\z`).Observe(7)
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		// Label values may contain spaces after escaping, so split on the
		// last space: everything before is name+labels, after is the value.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line with no value: %q", line)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = name[:j]
		}
		if name == "" || strings.ContainsAny(name, " \t") {
			t.Fatalf("bad metric name in %q", line)
		}
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x.")
	b := r.Counter("x_total", "x.")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("y_seconds", "y.", DurationScale, DurationBuckets, "stage", "apply")
	h2 := r.Histogram("y_seconds", "y.", DurationScale, DurationBuckets, "stage", "apply")
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
	h3 := r.Histogram("y_seconds", "y.", DurationScale, DurationBuckets, "stage", "render")
	if h3 == h1 {
		t.Fatal("distinct labels returned the same histogram")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name under two types did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("z", "z.")
	r.Gauge("z", "z.")
}

// TestConcurrentObserveCollect hammers every primitive while scraping; run
// under -race this is the data-race proof for the lock-free hot path.
func TestConcurrentObserveCollect(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c.")
	g := r.Gauge("g", "g.")
	h := r.Histogram("h_seconds", "h.", DurationScale, DurationBuckets)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := int64(0); ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(j)
				h.Observe(j % 10_000_000)
			}
		}()
	}
	for i := 0; i < 50 || c.Value() == 0; i++ {
		var b bytes.Buffer
		if err := r.WriteText(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if c.Value() == 0 || h.count.Load() == 0 {
		t.Fatal("no observations recorded")
	}
}

// TestHotPathAllocFree pins Counter.Add, Gauge.Set, and Histogram.Observe —
// including their nil-receiver no-op forms — at zero allocations, the
// contract that lets them sit on the 0 allocs/op batched ingest path.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c.")
	g := r.Gauge("g", "g.")
	h := r.Histogram("h_seconds", "h.", DurationScale, DurationBuckets)
	var nilC *Counter
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Set(7)
		h.Observe(3_000_000)
		nilC.Add(1)
		nilH.Observe(1)
	}); n != 0 {
		t.Fatalf("hot-path metric ops allocated %v allocs/op, want 0", n)
	}
}

func TestCommitSpanRecordsStages(t *testing.T) {
	r := NewRegistry()
	tr := NewCommitTracer(r, 0)
	s := tr.Begin("bid", 10)
	addStage(s, SpanValidate, time.Millisecond)
	addStage(s, SpanWAL, 2*time.Millisecond)
	addStage(s, SpanApply, 3*time.Millisecond)
	s.Finish()
	s.Finish() // a second Finish records nothing more
	if got := tr.total.count.Load(); got != 1 {
		t.Fatalf("total histogram count = %d, want 1", got)
	}
	if tr.stages[SpanValidate].count.Load() != 1 || tr.stages[SpanApply].count.Load() != 1 {
		t.Fatal("touched stages not recorded")
	}
	if tr.stages[SpanDeliver].count.Load() != 0 {
		t.Fatal("untouched stage recorded a zero observation")
	}
}

// TestSlowCommitLog asserts the acceptance criterion: a commit over the
// threshold emits exactly one structured line carrying per-stage durations.
func TestSlowCommitLog(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	r := NewRegistry()
	tr := NewCommitTracer(r, time.Nanosecond)
	s := tr.Begin("bid", 5)
	s.SetSeq(42)
	addStage(s, SpanWAL, 80*time.Millisecond)
	addStage(s, SpanApply, 30*time.Millisecond)
	time.Sleep(10 * time.Microsecond)
	s.Finish()
	out := buf.String()
	if n := strings.Count(out, "slow commit"); n != 1 {
		t.Fatalf("want exactly one slow-commit line, got %d in %q", n, out)
	}
	for _, want := range []string{`"relation":"bid"`, `"events":5`, `"seq":42`, `"wal":`, `"apply":`, `"total":`} {
		if !strings.Contains(out, want) {
			t.Errorf("slow-commit line missing %s: %s", want, out)
		}
	}
	if tr.slow.Value() != 1 {
		t.Fatalf("commit_slow_total = %d, want 1", tr.slow.Value())
	}
}

func TestDiscardRecordsNothing(t *testing.T) {
	r := NewRegistry()
	tr := NewCommitTracer(r, time.Nanosecond)
	s := tr.Begin("bid", 1)
	addStage(s, SpanValidate, time.Millisecond)
	s.Discard()
	s.Finish() // the publisher's deferred Finish after a failed commit
	if tr.total.count.Load() != 0 || tr.slow.Value() != 0 {
		t.Fatal("discarded span recorded observations")
	}
}

func TestNilTracerAndSpan(t *testing.T) {
	var tr *CommitTracer
	s := tr.Begin("x", 1)
	if s != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// All span methods must be no-ops on nil.
	s.AddSince(SpanRender, time.Now())
	s.SetSeq(1)
	s.Finish()
	s.Discard()
}

func TestHandlerContentType(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "a_total 1") {
		t.Fatalf("body missing sample: %q", rec.Body.String())
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "bench.")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "bench.", DurationScale, DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1_000_000_000)
	}
}

func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry()
	for _, stage := range stageNames {
		r.Histogram("commit_stage_seconds", "s.", DurationScale, DurationBuckets, "stage", stage).Observe(1_000_000)
	}
	r.Counter("a_total", "a.").Inc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// addStage accrues d to one stage of the span, as the timed call sites do.
func addStage(s *CommitSpan, stage SpanStage, d time.Duration) {
	s.stages[stage] += int64(d)
}
