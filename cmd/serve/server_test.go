package main

// End-to-end tests for the HTTP front-end: register -> ingest -> subscribe
// -> receive deltas over the chunked ndjson stream, without recompiling the
// query per event, plus the one-shot query and stats endpoints.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nexmark"
	"repro/internal/obs"
	"repro/internal/types"
)

func newTestServer(t *testing.T) (*httptest.Server, *http.Client) {
	t.Helper()
	ts := httptest.NewServer(NewServer(core.NewEngine()))
	t.Cleanup(ts.Close)
	return ts, ts.Client()
}

func postJSON(t *testing.T, c *http.Client, url string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

func getJSON(t *testing.T, c *http.Client, url string) (int, map[string]any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, out
}

// registerBid registers the Bid stream used by all tests.
func registerBid(t *testing.T, c *http.Client, base string) {
	t.Helper()
	code, body := postJSON(t, c, base+"/v1/relations", registerJSON{
		Name: "Bid",
		Kind: "stream",
		Schema: []columnJSON{
			{Name: "auction", Type: "BIGINT"},
			{Name: "price", Type: "BIGINT"},
			{Name: "dateTime", Type: "TIMESTAMP", EventTime: true},
		},
	})
	if code != http.StatusCreated {
		t.Fatalf("register: status %d body %v", code, body)
	}
}

// ingestBids posts one changelog batch to Bid and pins the reply's bytes:
// {"appended":N}, newline-terminated, as application/json.
func ingestBids(t *testing.T, c *http.Client, base string, events []eventJSON) {
	t.Helper()
	data, err := json.Marshal(ingestJSON{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(base+"/v1/relations/Bid/events", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", resp.StatusCode, body)
	}
	if want := fmt.Sprintf("{\"appended\":%d}\n", len(events)); string(body) != want {
		t.Fatalf("ingest reply = %q, want %q", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("ingest reply content type = %q", ct)
	}
}

func timeMS(ms int64) types.Time { return types.Time(ms) }

// TestServeEndToEnd: the acceptance-path demo — register a relation, ingest
// history, open a standing subscription, ingest more events, and watch the
// deltas arrive on the chunked stream without per-event recompilation.
func TestServeEndToEnd(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)

	mkEvent := func(ptime, auction, price, et int64) eventJSON {
		return eventJSON{Kind: "insert", Ptime: timeMS(ptime), Row: []any{auction, price, et}}
	}
	// History before the subscription exists.
	ingestBids(t, c, ts.URL, []eventJSON{
		mkEvent(1000, 1, 500, 1000),
		mkEvent(2000, 2, 950, 2000),
	})

	// Open the standing query.
	req, err := http.NewRequest("GET",
		ts.URL+"/v1/subscribe?sql="+queryEscape(`SELECT auction, price FROM Bid WHERE price > 900`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("subscribe content type = %q", ct)
	}
	lines := make(chan map[string]any, 16)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var m map[string]any
			if json.Unmarshal(sc.Bytes(), &m) == nil {
				lines <- m
			}
		}
	}()
	readLine := func() map[string]any {
		select {
		case m, ok := <-lines:
			if !ok {
				t.Fatal("subscription stream ended early")
			}
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a subscription line")
			return nil
		}
	}

	// First line: the schema header.
	hdr := readLine()
	if hdr["type"] != "schema" {
		t.Fatalf("first line type = %v, want schema", hdr["type"])
	}
	// The history event with price 950 replays as the first delta.
	d := readLine()
	if d["type"] != "delta" {
		t.Fatalf("second line type = %v, want delta", d["type"])
	}
	if got := deltaPrices(t, d); len(got) != 1 || got[0] != 950 {
		t.Fatalf("history delta prices = %v, want [950]", got)
	}

	// Live events: one match, one filtered out, one match.
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(3000, 3, 1200, 3000)})
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(4000, 4, 100, 4000)})
	ingestBids(t, c, ts.URL, []eventJSON{mkEvent(5000, 5, 2000, 5000)})
	if got := deltaPrices(t, readLine()); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("live delta 1 prices = %v, want [1200]", got)
	}
	if got := deltaPrices(t, readLine()); len(got) != 1 || got[0] != 2000 {
		t.Fatalf("live delta 2 prices = %v, want [2000]", got)
	}

	// Stats endpoint sees the subscription.
	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	subs := stats["subscriptions"].([]any)
	if len(subs) != 1 {
		t.Fatalf("%d subscriptions listed, want 1", len(subs))
	}
	entry := subs[0].(map[string]any)
	if entry["deltasOut"].(float64) != 3 {
		t.Fatalf("deltasOut = %v, want 3", entry["deltasOut"])
	}
	// Batched execution: the standing pipeline reports its dispatch
	// counters, and a fed pipeline averages at least one event per dispatch.
	if entry["dispatches"].(float64) <= 0 {
		t.Fatalf("dispatches = %v, want > 0", entry["dispatches"])
	}
	if epd := entry["eventsPerDispatch"].(float64); epd < 1 {
		t.Fatalf("eventsPerDispatch = %v, want >= 1", epd)
	}
	id := int(entry["id"].(float64))

	// Cancel via the API: the stream ends.
	delReq, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/v1/subscriptions/%d", ts.URL, id), nil)
	delResp, err := c.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	end := readLine()
	if end["type"] != "end" {
		t.Fatalf("end line = %v", end)
	}
	for range lines { // stream closes
	}
}

// TestServeQueryAndHealth: one-shot queries and liveness.
func TestServeQueryAndHealth(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{1, 500, 1000}},
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{1, 700, 2000}},
		{Kind: "watermark", Ptime: timeMS(3000), Wm: timeMS(2500)},
	})
	code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(
		`SELECT auction, price FROM Bid WHERE price > 600`))
	if code != http.StatusOK {
		t.Fatalf("query: status %d body %v", code, res)
	}
	rows := res["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v, want one", rows)
	}
	row := rows[0].([]any)
	if row[0].(float64) != 1 || row[1].(float64) != 700 {
		t.Fatalf("row = %v, want [1 700]", row)
	}
	// Unknown SQL errors cleanly.
	code, res = getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT nope FROM Missing`))
	if code != http.StatusBadRequest || res["error"] == "" {
		t.Fatalf("bad query: status %d body %v", code, res)
	}
	code, res = getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK || res["ok"] != true {
		t.Fatalf("healthz: status %d body %v", code, res)
	}
}

// TestServeIngestAtomicity: a batch with a mid-log error applies nothing.
func TestServeIngestAtomicity(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	code, _ := postJSON(t, c, ts.URL+"/v1/relations/Bid/events", ingestJSON{Events: []eventJSON{
		{Kind: "insert", Ptime: timeMS(2000), Row: []any{1, 500, 2000}},
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{2, 600, 1000}}, // ptime regression
	}})
	if code != http.StatusConflict {
		t.Fatalf("status = %d, want conflict", code)
	}
	code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT auction FROM Bid`))
	if code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if rows := res["rows"].([]any); len(rows) != 0 {
		t.Fatalf("rows after failed batch = %v, want none (atomicity)", rows)
	}
}

// TestServeRegisterRefusesUnservableSchema: registering a schema the engine
// cannot serve answers 400 and logs nothing.
func TestServeRegisterRefusesUnservableSchema(t *testing.T) {
	ts, _ := openServer(t, t.TempDir())
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	walSeq := func() float64 {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		return hz["walSeq"].(float64)
	}
	seq := walSeq()
	for _, schema := range [][]columnJSON{
		{{Name: "a", Type: "BIGINT"}, {Name: "A", Type: "VARCHAR"}},
		{{Name: "", Type: "BIGINT"}},
		{{Name: "t", Type: "BIGINT", EventTime: true}, {Name: "v", Type: "BIGINT"}},
	} {
		code, body := postJSON(t, c, ts.URL+"/v1/relations", registerJSON{Name: "D", Kind: "stream", Schema: schema})
		if code != http.StatusBadRequest {
			t.Errorf("register %v: status %d body %v, want 400", schema, code, body)
		}
	}
	if got := walSeq(); got != seq {
		t.Fatalf("refused registrations moved walSeq from %v to %v", seq, got)
	}
}

// TestServeEmptyIngestCommitsNothing: an ingest of no events is answered
// 200 {"appended":0} and takes no WAL sequence number (nor its fsync).
func TestServeEmptyIngestCommitsNothing(t *testing.T) {
	ts, _ := openServer(t, t.TempDir())
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	seq := hz["walSeq"]
	for i := 0; i < 5; i++ {
		code, body := postJSON(t, c, ts.URL+"/v1/relations/Bid/events", ingestJSON{Events: []eventJSON{}})
		if code != http.StatusOK || body["appended"] != float64(0) {
			t.Fatalf("empty ingest: status %d body %v", code, body)
		}
	}
	if _, hz := getJSON(t, c, ts.URL+"/v1/healthz"); hz["walSeq"] != seq {
		t.Fatalf("empty ingests moved walSeq from %v to %v", seq, hz["walSeq"])
	}
}

// TestServeBodyLimit: a POST body over maxBodyBytes is refused with 413 and
// an error naming the limit, and commits nothing — the WAL sequence and the
// relation's row count are unchanged — on ingest, register and heartbeat.
func TestServeBodyLimit(t *testing.T) {
	ts, _ := openServer(t, t.TempDir())
	defer ts.Close()
	c := ts.Client()
	registerBid(t, c, ts.URL)
	ingestBids(t, c, ts.URL, []eventJSON{{Kind: "insert", Ptime: timeMS(1000), Row: []any{1, 500, 1000}}})
	state := func() (walSeq, count float64) {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT COUNT(*) c FROM Bid`))
		if code != http.StatusOK {
			t.Fatalf("count query: status %d body %v", code, res)
		}
		return hz["walSeq"].(float64), res["rows"].([]any)[0].([]any)[0].(float64)
	}
	seq, count := state()

	// One well-formed batch just over the limit: every event in it is valid.
	var body bytes.Buffer
	body.WriteString(`{"events":[`)
	for i := 0; body.Len() <= maxBodyBytes; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"kind":"insert","ptime":%d,"row":[%d,700,%d]}`, 2000+i, i, 2000+i)
	}
	body.WriteString(`]}`)
	for _, path := range []string{"/v1/relations/Bid/events", "/v1/relations", "/v1/heartbeat"} {
		resp, err := c.Post(ts.URL+path, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
		msg, _ := out["error"].(string)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg, fmt.Sprint(maxBodyBytes)) {
			t.Fatalf("%s: status %d body %v, want 413 naming the %d-byte limit", path, resp.StatusCode, out, maxBodyBytes)
		}
	}
	if gotSeq, gotCount := state(); gotSeq != seq || gotCount != count {
		t.Fatalf("after the refused bodies: walSeq %v count %v, want %v and %v", gotSeq, gotCount, seq, count)
	}
}

// TestServeSharedSubscriptions: two standing queries with the same SQL are
// served from one resident pipeline (same pipeline id, subscribers=2 in the
// listing), while a query with another predicate gets its own; healthz
// distinguishes pipelines from subscribers.
func TestServeSharedSubscriptions(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)

	open := func(sql string) *http.Response {
		t.Helper()
		resp, err := c.Get(ts.URL + "/v1/subscribe?sql=" + queryEscape(sql))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("subscribe: status %d", resp.StatusCode)
		}
		// Read the schema line so the subscription is fully established
		// before we inspect the listing.
		if sc := bufio.NewScanner(resp.Body); !sc.Scan() {
			t.Fatal("no schema line")
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	open(`SELECT auction, price FROM Bid WHERE price > 900`)
	open(`SELECT auction, price FROM Bid WHERE price > 900`)
	open(`SELECT auction, price FROM Bid WHERE price > 100`)

	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	entries := stats["subscriptions"].([]any)
	if len(entries) != 3 {
		t.Fatalf("%d subscriptions listed, want 3", len(entries))
	}
	byPipeline := map[int][]float64{}
	for _, e := range entries {
		m := e.(map[string]any)
		byPipeline[int(m["pipeline"].(float64))] = append(
			byPipeline[int(m["pipeline"].(float64))], m["subscribers"].(float64))
	}
	if len(byPipeline) != 2 {
		t.Fatalf("subscriptions span %d pipelines, want 2 (shared pair + other query): %v", len(byPipeline), byPipeline)
	}
	for id, subs := range byPipeline {
		want := float64(len(subs))
		for _, s := range subs {
			if s != want {
				t.Fatalf("pipeline %d reports %v subscribers, want %v", id, s, want)
			}
		}
	}
	code, hz := getJSON(t, c, ts.URL+"/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if hz["liveSessions"].(float64) != 2 || hz["liveSubscribers"].(float64) != 3 {
		t.Fatalf("healthz = %v, want 2 pipelines / 3 subscribers", hz)
	}
}

// TestServeOnePipelinePerRelation: a stream reader, a table reader and a
// keyword-case respelling of one query are three subscriptions of one
// relation, served by one resident pipeline — one pipeline id with
// subscribers=3 in the listing, live_sessions 1 on /metrics — and each
// reader receives its own rendering of the same change.
func TestServeOnePipelinePerRelation(t *testing.T) {
	ts := httptest.NewServer(NewServer(core.NewEngine(core.WithObs(obs.NewRegistry()))))
	t.Cleanup(ts.Close)
	c := ts.Client()
	registerBid(t, c, ts.URL)
	const sql = `SELECT auction, price FROM Bid WHERE price > 900`
	var reads []func() map[string]any
	for _, params := range []string{
		"mode=stream&sql=" + queryEscape(sql),
		"mode=table&sql=" + queryEscape(sql),
		"sql=" + queryEscape(`select auction, price from Bid where price > 900`),
	} {
		resp, read := subscribeLines(t, c, ts.URL, params)
		t.Cleanup(func() { resp.Body.Close() })
		if m := read(); m["type"] != "schema" {
			t.Fatalf("first line %v, want the schema", m)
		}
		reads = append(reads, read)
	}

	code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
	if code != http.StatusOK {
		t.Fatalf("subscriptions: status %d", code)
	}
	entries := stats["subscriptions"].([]any)
	if len(entries) != 3 {
		t.Fatalf("%d subscriptions listed, want 3", len(entries))
	}
	pipeline := entries[0].(map[string]any)["pipeline"]
	for _, e := range entries {
		m := e.(map[string]any)
		if m["pipeline"] != pipeline || m["subscribers"].(float64) != 3 {
			t.Fatalf("subscription %v: want pipeline %v with 3 subscribers", m, pipeline)
		}
	}
	code, body, _ := getBody(t, c, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "\nlive_sessions 1\n") {
		t.Fatalf("/metrics (status %d) does not read live_sessions 1:\n%s", code, body)
	}

	ingestBids(t, c, ts.URL, []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{int64(7), int64(950), int64(1000)}},
	})
	for i, read := range reads {
		d := read()
		_, stream := d["rows"]
		_, table := d["inserted"]
		if stream == (i == 1) || table != (i == 1) {
			t.Fatalf("reader %d delta %v: want the %s rendering", i, d, map[bool]string{true: "table", false: "stream"}[i == 1])
		}
	}
}

// TestServeSubscribeLimits: a negative retain is refused with 400 and an
// error naming the limit, before any session opens — liveSessions in
// /v1/healthz does not move — while buffer= and policy=, which no longer
// exist, are ignored like any unknown parameter.
func TestServeSubscribeLimits(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	sql := "sql=" + queryEscape(`SELECT auction, price FROM Bid`)
	sessions := func() float64 {
		t.Helper()
		_, hz := getJSON(t, c, ts.URL+"/v1/healthz")
		return hz["liveSessions"].(float64)
	}
	for _, tc := range []struct{ params, want string }{
		{"&retain=-1", "negative"},
	} {
		code, body := getJSON(t, c, ts.URL+"/v1/subscribe?"+sql+tc.params)
		msg, _ := body["error"].(string)
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: status %d body %v, want 400 naming %q", tc.params, code, body, tc.want)
		}
		if n := sessions(); n != 0 {
			t.Fatalf("%s: a refused subscribe left %v live sessions", tc.params, n)
		}
	}
	resp, read := subscribeLines(t, c, ts.URL, sql+"&buffer=100000000&policy=bogus&retain=0")
	defer resp.Body.Close()
	if line := read(); line["type"] != "schema" {
		t.Fatalf("first line = %v, want the schema", line)
	}
	if n := sessions(); n != 1 {
		t.Fatalf("%v live sessions after a subscribe with ignored parameters, want 1", n)
	}
}

// TestServeRefusesDeepNesting: a query nested 400,000 parentheses deep
// (800 KB, inside net/http's default 1 MiB header cap) is refused with 400;
// recursing that deep would overflow the goroutine stack, a fatal error that
// kills the process. The server then answers a normal query.
func TestServeRefusesDeepNesting(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	const depth = 400_000
	deep := "SELECT+" + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + "+FROM+Bid"
	code, body := getJSON(t, c, ts.URL+"/v1/query?sql="+deep)
	if msg, _ := body["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "levels deep") {
		t.Fatalf("deep query: status %d body %.200v, want 400 naming the nesting limit", code, body)
	}
	if code, body := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT auction FROM Bid`)); code != http.StatusOK {
		t.Fatalf("query after the deep one: status %d body %v, want 200", code, body)
	}
}

// TestServeSubscriptionsSorted: /v1/subscriptions lists entries in id order,
// the same order on every call.
func TestServeSubscriptionsSorted(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	for _, q := range []string{
		`SELECT auction FROM Bid`, `SELECT price FROM Bid`, `SELECT auction, price FROM Bid`,
	} {
		resp, read := subscribeLines(t, c, ts.URL, "sql="+queryEscape(q))
		defer resp.Body.Close()
		read() // the schema line: the subscription is registered
	}
	var first []float64
	for i := 0; i < 20; i++ {
		code, stats := getJSON(t, c, ts.URL+"/v1/subscriptions")
		if code != http.StatusOK {
			t.Fatalf("subscriptions: status %d", code)
		}
		var ids []float64
		for _, e := range stats["subscriptions"].([]any) {
			ids = append(ids, e.(map[string]any)["id"].(float64))
		}
		if len(ids) != 3 || ids[0] >= ids[1] || ids[1] >= ids[2] {
			t.Fatalf("call %d listed ids %v, want three in ascending order", i, ids)
		}
		if first == nil {
			first = ids
		} else if fmt.Sprint(ids) != fmt.Sprint(first) {
			t.Fatalf("call %d listed %v, first call %v", i, ids, first)
		}
	}
}

func deltaPrices(t *testing.T, d map[string]any) []int64 {
	t.Helper()
	rows, ok := d["rows"].([]any)
	if !ok {
		t.Fatalf("delta has no rows: %v", d)
	}
	var out []int64
	for _, r := range rows {
		row := r.(map[string]any)["row"].([]any)
		out = append(out, int64(row[1].(float64)))
	}
	return out
}

func queryEscape(s string) string {
	return strings.ReplaceAll(strings.ReplaceAll(s, " ", "+"), ">", "%3E")
}

// TestServeRefusesTrailingData: a body holding anything but whitespace after
// its JSON value is refused with 400 on every POST route, and nothing of it
// is applied — not even the first value, which used to be committed while
// the rest was dropped without a word.
func TestServeRefusesTrailingData(t *testing.T) {
	ts, c := newTestServer(t)
	registerBid(t, c, ts.URL)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := c.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: decode response: %v", path, err)
		}
		return resp.StatusCode, out.Error
	}
	ev := `{"kind":"insert","ptime":1000,"row":[1,500,1000]}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/relations/Bid/events", `{"events":[` + ev + `]}{"events":[` + ev + `]}`},
		{"/v1/relations/Bid/events", `{"events":[` + ev + `]} garbage`},
		{"/v1/relations", `{"name":"T","kind":"stream","schema":[{"name":"x","type":"BIGINT"}]} {}`},
		{"/v1/heartbeat", `{"ptime":5000} {"ptime":6000}`},
	} {
		if code, msg := post(tc.path, tc.body); code != http.StatusBadRequest || !strings.Contains(msg, "trailing data") {
			t.Errorf("POST %s %s: status %d error %q, want 400 naming the trailing data", tc.path, tc.body, code, msg)
		}
	}
	code, res := getJSON(t, c, ts.URL+"/v1/query?sql="+queryEscape(`SELECT COUNT(*) c FROM Bid`))
	if code != http.StatusOK || res["rows"].([]any)[0].([]any)[0].(float64) != 0 {
		t.Fatalf("Bid after refused batches: status %d body %v, want a count of 0", code, res)
	}
	if code, _ := postJSON(t, c, ts.URL+"/v1/relations", registerJSON{Name: "T", Kind: "stream",
		Schema: []columnJSON{{Name: "x", Type: "BIGINT"}}}); code != http.StatusCreated {
		t.Fatalf("registering T after the refused registration: status %d, want 201", code)
	}
}

// TestServeNonFiniteResult: a result holding a DOUBLE JSON cannot represent
// (here +Inf) is refused with a JSON error instead of an empty 200, and a
// subscription whose delta holds one ends with an end line naming it.
func TestServeNonFiniteResult(t *testing.T) {
	ts, c := newTestServer(t)
	if code, body := postJSON(t, c, ts.URL+"/v1/relations", registerJSON{Name: "T", Kind: "stream",
		Schema: []columnJSON{{Name: "x", Type: "DOUBLE"}}}); code != http.StatusCreated {
		t.Fatalf("register: status %d body %v", code, body)
	}
	sql := queryEscape(`SELECT x * 10 AS y FROM T`)
	resp, read := subscribeLines(t, c, ts.URL, "sql="+sql)
	defer resp.Body.Close()
	if line := read(); line["type"] != "schema" {
		t.Fatalf("first line = %v, want the schema", line)
	}
	code, _ := postJSON(t, c, ts.URL+"/v1/relations/T/events", ingestJSON{Events: []eventJSON{
		{Kind: "insert", Ptime: timeMS(1000), Row: []any{1e308}},
	}})
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if line := read(); line["type"] != "end" || !strings.Contains(fmt.Sprint(line["error"]), "+Inf") {
		t.Fatalf("subscription line = %v, want an end line naming +Inf", line)
	}
	for _, mode := range []string{"table", "stream"} {
		code, res := getJSON(t, c, ts.URL+"/v1/query?mode="+mode+"&sql="+sql)
		if code < 300 || !strings.Contains(fmt.Sprint(res["error"]), "+Inf") {
			t.Errorf("%s query: status %d body %v, want a non-2xx error naming +Inf", mode, code, res)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status, reusable
// across requests so that a measurement counts the handler's allocations.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestIngestHandlerAllocs pins what one small ingest allocates end to end
// through Server.ServeHTTP: routing, the body read, the decode, the commit
// and the reply. A commit route runs on the caller's goroutine with its
// deadline a plain value, so wrapping it in a goroutine, a timer or a
// buffered writer again (http.TimeoutHandler costs all three) fails the pin.
func TestIngestHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	engine := core.NewEngine()
	if err := engine.RegisterStream("Bid", nexmark.BidFullSchema()); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(engine)
	srv.SetRequestTimeout(30 * time.Second) // the -request-timeout default
	// Seven events, as join_query_mix posts them, all at one ptime so the
	// same batch can commit again and again.
	var b bytes.Buffer
	b.WriteString(`{"events":[`)
	for i := 0; i < 7; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"kind":"insert","ptime":1700000000000,"row":[%d,%d,%d,1699999999997]}`, 1000+i, 5000+i, 100+i*7)
	}
	b.WriteString(`]}`)
	body := bytes.NewReader(b.Bytes())
	req := httptest.NewRequest("POST", "/v1/relations/Bid/events", body)
	req.Body = io.NopCloser(body)
	w := &discardWriter{h: http.Header{}}
	post := func() {
		body.Reset(b.Bytes())
		srv.ServeHTTP(w, req)
	}
	post()
	if w.code != http.StatusOK {
		t.Fatalf("ingest: status %d", w.code)
	}
	// The ceiling is the count measured when the commit routes left
	// http.TimeoutHandler: under it the same request made 25.
	const ceiling = 10
	if allocs := testing.AllocsPerRun(200, post); allocs > ceiling || w.code != http.StatusOK {
		t.Errorf("a 7-event ingest through ServeHTTP: %v allocations (status %d), want <= %d", allocs, w.code, ceiling)
	}
}
