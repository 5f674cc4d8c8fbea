package main

// Serve-level degraded-mode acceptance test: a persistent fsync fault in
// the WAL must flip the whole HTTP surface into the documented degraded
// contract — ingest bounces with 503 + Retry-After, /v1/healthz reports
// status=degraded with the cause, one-shot queries and open subscriptions
// keep serving — and clearing the fault plus one successful checkpoint
// brings ingest back without a restart.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vfs"
)

// registerBidDirect registers the Bid stream on the engine itself, for
// tests whose HTTP routes are deliberately crippled.
func registerBidDirect(t *testing.T, e *core.Engine) {
	t.Helper()
	sch := types.NewSchema(
		types.Column{Name: "auction", Kind: types.KindInt64},
		types.Column{Name: "price", Kind: types.KindInt64},
		types.Column{Name: "dateTime", Kind: types.KindTimestamp, EventTime: true},
	)
	if err := e.RegisterStream("Bid", sch); err != nil {
		t.Fatal(err)
	}
}

func TestServeDegradedMode(t *testing.T) {
	ffs := vfs.NewFault(vfs.Default)
	engine, _ := openDataDir(t, t.TempDir(), core.WithFS(ffs))
	ts := httptest.NewServer(NewServer(engine))
	defer ts.Close()
	c := ts.Client()

	registerBid(t, c, ts.URL)
	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(1000, 1, 950, 1000)})

	// A standing subscription opened while the engine is healthy.
	resp, read := subscribeLines(t, c, ts.URL,
		"sql="+queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`))
	defer resp.Body.Close()
	if hdr := read(); hdr["type"] != "schema" {
		t.Fatalf("first line = %v, want schema", hdr)
	}
	if got := deltaPrices(t, read()); len(got) != 1 || got[0] != 950 {
		t.Fatalf("pre-fault delta prices = %v, want [950]", got)
	}

	// The disk stops honoring fsync. The first ingest is refused (the WAL
	// append fails and poisons the segment) and the engine degrades.
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Err: errors.New("EIO: injected")})
	ingest := func() *http.Response {
		t.Helper()
		data, err := json.Marshal(ingestJSON{Events: []eventJSON{mkEvent(2000, 2, 960, 2000)}})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Post(ts.URL+"/v1/relations/Bid/events", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := ingest(); resp.StatusCode == http.StatusOK {
		t.Fatal("ingest with failing fsync must not be acknowledged")
	}
	// Every subsequent write bounces with the degraded contract: 503 and a
	// Retry-After hint, not a generic error the client would treat as fatal.
	if resp := ingest(); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while degraded: status %d, want 503", resp.StatusCode)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 must carry Retry-After")
	}

	// Healthz tells the operator what is going on.
	code, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz while degraded: status %d (the probe itself must stay up)", code)
	}
	if hz["status"] != "degraded" || hz["degraded"] != true {
		t.Fatalf("healthz = %v, want status=degraded", hz)
	}
	if cause, _ := hz["degradedCause"].(string); cause == "" {
		t.Fatal("healthz must report the degraded cause")
	}

	// Reads are unaffected: the one-shot query path serves the last
	// committed state, and the standing subscription is still open.
	qcode, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT auction FROM Bid`))
	if qcode != http.StatusOK {
		t.Fatalf("one-shot query while degraded: status %d", qcode)
	}
	if rows := res["rows"].([]any); len(rows) != 1 {
		t.Fatalf("query rows while degraded = %v, want the pre-fault row", rows)
	}

	// The disk comes back. A successful checkpoint clears degraded mode
	// (the engine re-proves the log with a durable probe record first).
	ffs.ClearFaults()
	ccode, cbody := postJSON(t, c, ts.URL+"/v1/checkpoint", struct{}{})
	if ccode != http.StatusOK {
		t.Fatalf("checkpoint after fault cleared: status %d body %v", ccode, cbody)
	}
	code, hz = getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK || hz["status"] != "ok" || hz["degraded"] != false {
		t.Fatalf("healthz after recovery = %v, want status=ok", hz)
	}
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(3000, 3, 1200, 3000)})
	// The subscriber that lived through the outage receives the new commit.
	if got := deltaPrices(t, read()); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("post-recovery delta prices = %v, want [1200]", got)
	}
}

// TestServeRequestTimeout: under -request-timeout every commit route
// (register, ingest, heartbeat, checkpoint) checks its deadline at commit
// and, past it, answers 503 with nothing committed; the one-shot reads run
// under the timed wrapper; the streaming subscribe endpoint is exempt — a
// subscription is *supposed* to outlive any timeout.
func TestServeRequestTimeout(t *testing.T) {
	engine, _ := openDataDir(t, t.TempDir())
	srv := NewServer(engine)
	srv.SetRequestTimeout(time.Nanosecond) // absurd on purpose: every bounded route must trip
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := ts.Client()

	// Register through the engine directly: this server's POST routes are
	// deliberately unusable, since a 1ns deadline has always passed by the
	// time a commit checks it.
	registerBidDirect(t, engine)
	seq := engine.WALSeq()
	ckpt := engine.CheckpointStatus()

	// Subscribe must NOT be bounded: it stays open well past the timeout.
	sresp, err := c.Get(ts.URL + "/v1/subscribe?sql=" + queryEscape(`SELECT auction FROM Bid`))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe under request timeout: status %d, want 200 (exempt)", sresp.StatusCode)
	}

	// Each commit route answers 503 {"error":...} and commits nothing.
	for _, p := range []struct {
		path string
		body any
	}{
		{"/v1/relations", registerJSON{Name: "Person", Kind: "stream",
			Schema: []columnJSON{{Name: "id", Type: "BIGINT"}}}},
		{"/v1/relations/Bid/events", ingestJSON{Events: []eventJSON{
			{Kind: "insert", Ptime: 1000, Row: []any{1, 950, 1000}}}}},
		{"/v1/heartbeat", map[string]any{"ptime": 5000}},
		{"/v1/checkpoint", struct{}{}},
	} {
		code, body := postJSON(t, c, ts.URL+p.path, p.body)
		if msg, _ := body["error"].(string); code != http.StatusServiceUnavailable || !strings.Contains(msg, "deadline") {
			t.Errorf("POST %s under 1ns timeout: status %d body %v, want 503 naming the deadline", p.path, code, body)
		}
	}
	if _, err := engine.Resolve("Person"); err == nil {
		t.Error("a registration refused for its deadline registered its relation")
	}
	if got := engine.WALSeq(); got != seq {
		t.Errorf("WAL sequence moved from %d to %d across refused commits", seq, got)
	}
	if got := engine.CheckpointStatus(); got.At != ckpt.At || got.Failures != 0 {
		t.Errorf("checkpoint status after a refused checkpoint = %+v, want %+v", got, ckpt)
	}
	srv.mu.Lock()
	for _, e := range srv.subs {
		if st := e.sub.Stats(); st.EventsIn != 0 {
			t.Errorf("subscription %d saw %d events from refused commits", e.id, st.EventsIn)
		}
	}
	srv.mu.Unlock()

	// A fast read can finish inside even 1ns, so the timed half uses a
	// handler that cannot finish before the wrapper has answered, behind the
	// same wrapper the reads use: only the timeout can answer it.
	rec := httptest.NewRecorder()
	release := make(chan struct{})
	srv.timed(func(http.ResponseWriter, *http.Request) { <-release })(
		rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	close(release)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed handler under 1ns timeout: status %d, want 503", rec.Code)
	}

	// Give the timeout every chance to misfire on the subscription, then
	// confirm the stream is still delivering: read the schema line.
	time.Sleep(20 * time.Millisecond)
	buf := make([]byte, 1)
	if _, err := sresp.Body.Read(buf); err != nil {
		t.Fatalf("subscribe stream died under request timeout: %v", err)
	}
}
