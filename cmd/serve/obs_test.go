package main

// Integration tests for the observability surface: GET /metrics serves the
// Prometheus text format with every layer's families present after real
// traffic, a commit slower than -slow-commit emits exactly one structured
// span-breakdown line, and -pprof mounts the profiling endpoints.

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing slog output
// written from HTTP handler goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

func getBody(t *testing.T, c *http.Client, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data), resp.Header
}

// TestMetricsEndpoint drives real traffic through a fully wired engine —
// WAL attached, a standing query, one-shot queries, heartbeats, and a
// checkpoint — then scrapes /metrics and asserts every layer's families are
// present and the exposition is well-formed.
func TestMetricsEndpoint(t *testing.T) {
	engine, _ := openDataDir(t, t.TempDir(), core.WithObs(obs.NewRegistry()), core.WithSlowCommit(0))
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()

	registerBid(t, c, ts.URL)

	// A standing query so the live/exec families move.
	req, err := http.NewRequest("GET",
		ts.URL+"/v1/subscribe?sql="+queryEscape(`SELECT auction, price FROM Bid`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{int64(1), int64(500), int64(1000)}},
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{int64(2), int64(950), int64(2000)}},
	})
	if code, body := postJSON(t, c, ts.URL+"/v1/heartbeat", map[string]any{"ptime": 3000}); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d body %v", code, body)
	}
	// An AS OF scan completes only at Close: the read replays.
	if code, body, _ := getBody(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT COUNT(*) c FROM Bid AS OF SYSTEM TIME TIMESTAMP '0:00:03'`)); code != http.StatusOK {
		t.Fatalf("query: status %d body %s", code, body)
	}
	// The standing query's own SQL at an earlier instant: answered from the
	// prefix of its resident pipeline's output, which holds the first bid.
	code, body, _ := getBody(t, c, fmt.Sprintf("%s/v1/query?at=%d&sql=%s", ts.URL, int64(timeMS(1500)), queryEscape(`SELECT auction, price FROM Bid`)))
	if code != http.StatusOK || !strings.Contains(body, `"rows":[[1,500]]`) {
		t.Fatalf("query at 1.5 s: status %d body %s", code, body)
	}
	if code, body := postJSON(t, c, ts.URL+"/v1/checkpoint", nil); code != http.StatusOK {
		t.Fatalf("checkpoint: status %d body %v", code, body)
	}

	code, body, hdr := getBody(t, c, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}

	// One family per instrumented layer, plus the commit tracer.
	for _, want := range []string{
		`engine_commits_total{kind="publish"} 1`,
		`engine_commits_total{kind="heartbeat"} 1`,
		"engine_queries_total 2",
		"engine_query_resident_total 1",
		"engine_query_folded_rows_total 1", // the first bid, the prefix up to 1.5 s
		`engine_query_replay_total{reason="not_inert"} 1`,
		`engine_query_replay_total{reason="no_session"} 0`,
		"checkpoint_total 2", // the first boot's snapshot and the POST
		"wal_appends_total",
		"wal_fsync_seconds_bucket{le=",
		"live_sessions 1",
		"live_deltas_out_total",
		"live_events_in_total 2",
		"exec_dispatches_total",
		"commit_seconds_count",
		`commit_stage_seconds_bucket{stage=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Every non-comment line is `name{labels} value` with a parseable value;
	// HELP/TYPE precede their family's samples.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("malformed comment line %q", line)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

// sample reads one unlabelled series from a /metrics body.
func sample(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			if _, err := fmt.Sscan(v, &f); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// TestMetricsRendererGroups: live_renderer_groups counts one version counter
// per event-time grouping a session renders. Q1's emit key is dateTime, so
// N bids at distinct dateTimes under one stream subscriber read N, a bid at
// a dateTime already seen adds none, and the session's share is gone once
// its last subscriber leaves.
func TestMetricsRendererGroups(t *testing.T) {
	engine := core.NewEngine(core.WithObs(obs.NewRegistry()))
	defer engine.Close()
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	resp, read := subscribeLines(t, c, ts.URL, "mode=stream&sql="+queryEscape(`SELECT auction, price * 908 / 1000 AS price, dateTime FROM Bid`))
	defer resp.Body.Close()
	id := int(read()["id"].(float64))

	const n = 40
	events := make([]eventJSON, n)
	for i := range events {
		events[i] = eventJSON{Kind: "insert", Ptime: timeMS(int64(1000 + i)), Row: []any{int64(i), int64(100), int64(5000 + 7*i)}}
	}
	ingestBids(t, c, ts.URL, events[:n/2])
	ingestBids(t, c, ts.URL, events[n/2:])
	_, body, _ := getBody(t, c, ts.URL+"/metrics")
	if got := sample(t, body, "live_renderer_groups"); got != n {
		t.Fatalf("live_renderer_groups = %v after %d bids at distinct dateTimes, want %d", got, n, n)
	}
	ingestBids(t, c, ts.URL, []eventJSON{{Kind: "insert", Ptime: timeMS(2000), Row: []any{int64(99), int64(1), int64(5000)}}})
	_, body, _ = getBody(t, c, ts.URL+"/metrics")
	if got := sample(t, body, "live_renderer_groups"); got != n {
		t.Fatalf("live_renderer_groups = %v after a bid at a dateTime already seen, want %d", got, n)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if del, err := c.Do(req); err != nil {
		t.Fatal(err)
	} else {
		del.Body.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		_, body, _ = getBody(t, c, ts.URL+"/metrics")
		if sample(t, body, "live_sessions") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the canceled subscription's pipeline never tore down")
		}
	}
	if got := sample(t, body, "live_renderer_groups"); got != 0 {
		t.Fatalf("live_renderer_groups = %v with no session left, want 0", got)
	}
}

// TestMetricsDispatchCountersNeverFall: exec_dispatches_total and
// exec_dispatched_events_total are counters, so the teardown of the pipeline
// whose dispatches they counted must not lower them: subscribe, ingest,
// scrape, cancel, scrape.
func TestMetricsDispatchCountersNeverFall(t *testing.T) {
	engine := core.NewEngine(core.WithObs(obs.NewRegistry()))
	defer engine.Close()
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	resp, read := subscribeLines(t, c, ts.URL, "sql="+queryEscape(`SELECT auction, price FROM Bid`))
	defer resp.Body.Close()
	id := int(read()["id"].(float64))
	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{int64(1), int64(500), int64(1000)}},
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{int64(2), int64(950), int64(2000)}},
	})
	counters := []string{"exec_dispatches_total", "exec_dispatched_events_total"}
	_, body, _ := getBody(t, c, ts.URL+"/metrics")
	before := make([]float64, len(counters))
	for i, name := range counters {
		if before[i] = sample(t, body, name); before[i] == 0 {
			t.Fatalf("%s = 0 after ingest; the test needs a dispatch", name)
		}
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if del, err := c.Do(req); err != nil {
		t.Fatal(err)
	} else {
		del.Body.Close()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		_, body, _ = getBody(t, c, ts.URL+"/metrics")
		if sample(t, body, "live_sessions") == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the canceled subscription's pipeline never tore down")
		}
	}
	for i, name := range counters {
		if after := sample(t, body, name); after < before[i] {
			t.Errorf("%s fell from %v to %v when its pipeline tore down", name, before[i], after)
		}
	}
}

// TestMetricsAfterRestore: a pipeline restored from a checkpoint counts
// into the live_* families exactly like a freshly registered one (the
// restore path must wire the session to the manager's metrics too).
func TestMetricsAfterRestore(t *testing.T) {
	dir := t.TempDir()
	{
		engine, _ := openDataDir(t, dir, core.WithObs(obs.NewRegistry()))
		ts := httptest.NewServer(NewServer(engine))
		c := ts.Client()
		registerBid(t, c, ts.URL)
		resp, err := c.Get(ts.URL + "/v1/subscribe?sql=" + queryEscape(`SELECT auction, price FROM Bid`))
		if err != nil {
			t.Fatal(err)
		}
		if code, body := postJSON(t, c, ts.URL+"/v1/checkpoint", nil); code != http.StatusOK {
			t.Fatalf("checkpoint: status %d body %v", code, body)
		}
		resp.Body.Close()
		ts.Close()
		engine.Close()
	}

	engine, restored := openDataDir(t, dir, core.WithObs(obs.NewRegistry()))
	if !restored {
		t.Fatal("second boot did not restore from the checkpoint")
	}
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()

	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{int64(1), int64(500), int64(1000)}},
	})
	_, body, _ := getBody(t, c, ts.URL+"/metrics")
	for _, want := range []string{"live_sessions 1", "live_events_in_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics after restore missing %q", want)
		}
	}
}

// TestMetricsAbsentWithoutRegistry: an engine built without WithObs has no
// /metrics route (404), not an empty page.
func TestMetricsAbsentWithoutRegistry(t *testing.T) {
	ts, c := newTestServer(t)
	code, _, _ := getBody(t, c, ts.URL+"/metrics")
	if code != http.StatusNotFound {
		t.Fatalf("/metrics without registry: status %d, want 404", code)
	}
}

// TestServeSlowCommitLog: a commit slower than the -slow-commit threshold
// (forced to 1ns) emits exactly one structured span-breakdown line through
// the process logger, with per-stage durations.
func TestServeSlowCommitLog(t *testing.T) {
	var buf syncBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	engine := core.NewEngine(core.WithUnboundedGroupBy(),
		core.WithObs(obs.NewRegistry()),
		core.WithSlowCommit(time.Nanosecond))
	defer engine.Close()
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()

	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{int64(1), int64(500), int64(1000)}},
	})

	out := buf.String()
	slow := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "slow commit") {
			slow++
			for _, want := range []string{`"relation":"Bid"`, `"events":1`, `"total":`, `"validate":`, `"wal":`} {
				if !strings.Contains(line, want) {
					t.Errorf("slow-commit line missing %s: %s", want, line)
				}
			}
		}
	}
	if slow != 1 {
		t.Fatalf("%d slow-commit lines for one traced publish, want 1; log:\n%s", slow, out)
	}
}

// TestPprofGated: /debug/pprof is 404 by default and serves after
// EnablePprof (-pprof).
func TestPprofGated(t *testing.T) {
	engine := core.NewEngine()
	defer engine.Close()
	srv := NewServer(engine)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	if code, _, _ := getBody(t, c, ts.URL+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof before EnablePprof: status %d, want 404", code)
	}
	srv.EnablePprof()
	code, body, _ := getBody(t, c, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index after EnablePprof: status %d", code)
	}
}
